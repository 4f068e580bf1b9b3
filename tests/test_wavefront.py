import math
import time
import random
from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import (
    ChowregError,
    ConvergenceError,
    CurveComponent,
    PhaseSchedule,
    PrecisionError,
    Precycle,
    RationalFunction,
    ScheduleError,
    TracedPath,
    admissible,
    find_pair_intersections,
    intersection_number_n2,
    load_fixture,
    make_schedule,
    parse_cycle_file,
    regulator,
    search_schedule,
    trace_wavefront,
    workprec,
)
from chowreg.funcfield import RFEvaluator, mpf_to_fraction
from chowreg.numeric import ComplexApprox, double_image
from chowreg.wavefront import (
    SCHEDULE_ATTEMPTS,
    SIGMA_SPAN_DEFAULT,
    TRACE_GRID_DEFAULT,
    _binary_ints,
    _built_schedule,
    _off_cut_entries,
    _on_cut_margin,
    _direction,
    _rotation,
    _sign_variations,
    search_admissible,
)


def t_var(order=1):
    return RationalFunction.t(order)


def test_schedule_single_phase():
    with workprec(128):
        s = make_schedule(0.5, 1, 0.5)
        assert abs(s.phases[0] - mp.mpf("0.25")) < 1e-30


def test_schedule_two_phases():
    with workprec(128):
        s = make_schedule(0.5, 2, 0.5)
        assert abs(s.phases[1] - mp.mpf("0.5") * mp.exp(-4)) < 1e-30
        assert str(mp.nstr(s.phases[1], 4)) == "0.009158"


def test_schedule_third_phase_tiny_but_representable():
    with workprec(256):
        s = make_schedule(0.5, 3, 0.5)
        third = s.phases[2]
        assert third == mp.mpf("0.5") * mp.exp(-1 / s.phases[1])
        assert mp.mpf("1e-48") < third < mp.mpf("3e-48")
        assert s.is_b_nested()


def test_schedule_underflow_rejected():
    with workprec(256):
        with pytest.raises(ScheduleError):
            make_schedule(0.5, 5, 0.5)


def _log_guarded_schedule(eps_bound, n, lam):
    """The phases of make_schedule under its former guard, log2(1/eps) >
    2^20, or None where that guard refused."""
    phases = [lam * eps_bound]
    for _ in range(n - 1):
        inv = 1 / phases[-1]
        if mp.log(inv, 2) > mp.mpf(2) ** 20:
            return None
        phases.append(lam * mp.exp(-inv))
    return tuple(phases)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_schedule_underflow_guard_compares_without_logs(bits):
    # the guard compares 1/eps exactly with 2^(2^20), not log2(1/eps) with
    # 2^20: over a grid of bounds and lambda it keeps the same phases bit
    # for bit and refuses where the log form did, at 3 to 5 phases of an
    # ordinary bound and with 1/eps_1 at 2^(2^20) (1 + 2^-8) and
    # 2^(2^20 + 1).  An accepted 1/eps near 2^(2^20) would take
    # exp(-2^(2^20)), which the guard is there to spare
    with workprec(bits):
        edge = mp.ldexp(1, -2 ** 20)
        refused = 0
        for lam in (mp.mpf("0.05"), mp.mpf("0.5"), mp.mpf("0.95")):
            bounds = [mp.mpf(x) for x in ("1", "0.3", "0.01")] + [
                edge / lam / f for f in (1 + mp.mpf(2) ** -8, 2)]
            for eps in bounds:
                for n in (2, 3, 4, 5):
                    expected = _log_guarded_schedule(eps, n, lam)
                    if expected is None:
                        refused += 1
                        with pytest.raises(ScheduleError, match="underflow"):
                            make_schedule(eps, n, lam)
                    else:
                        assert make_schedule(eps, n, lam).phases == expected
        assert 0 < refused < 3 * 5 * 4


def test_schedule_strict_nesting_random():
    rng = random.Random(19)
    with workprec(256):
        for _ in range(50):
            lam = rng.uniform(0.05, 0.95)
            eps = rng.uniform(0.01, 2.0)
            n = rng.randint(1, 3)
            s = make_schedule(eps, n, lam)
            assert s.is_b_nested()
            assert 0 < s.phases[0] < s.eps_bound
            for k in range(n - 1):
                assert mp.log(s.phases[k + 1]) < -1 / s.phases[k]


@pytest.mark.xfail(strict=True, reason=(
    "once 1/eps_k reaches 2^prec, log eps_(k+1) < -1/eps_k differs only by "
    "log lambda, lost to rounding; ROADMAP puts the fix in make_schedule"))
def test_a_made_schedule_reads_as_nested_at_a_small_bound():
    with workprec(128):
        assert make_schedule(mp.mpf("0.02"), 3, 0.5, 128).is_b_nested()


def test_schedule_validation_rejects_bad():
    assert not PhaseSchedule(0.5, (0.25, 0.25, 0.25)).is_b_nested()
    assert not PhaseSchedule(0.5, (0.6,)).is_b_nested()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_non_finite_phase_is_refused(z1, value):
    # every comparison with nan is false, so no sign check alone refuses
    # it: a schedule, its construction and an evaluation from such a bound
    # leave as a ChowregError, not as a raw ValueError or a report
    x = float(value)
    with workprec(128):
        for build in (lambda: PhaseSchedule(1, (0.1, x, 0.001)),
                      lambda: PhaseSchedule(x, (0.1, 0.01, 0.001)),
                      lambda: make_schedule(x, 3, 0.5),
                      lambda: regulator(z1, precision_bits=128, eps_start=x)):
            with pytest.raises(ChowregError, match="finite|eps_bound < oo"):
                build()


def _margins(path, phase):
    """Angular distance of f(t) from the cut ray of ``phase`` at every
    point t of ``path`` on the trace grid."""
    rot = _rotation(phase, mp.mp.prec)[0]
    return [_on_cut_margin(path.evaluator.value(t), rot)
            for _, t in path.samples()]


def _grid_samples(path):
    """The (sigmas, points) of a Moebius path on the trace grid, which the
    path itself does not store."""
    assert path.evaluator.rf.degree_map == 1
    assert path.sigmas == () and path.points == ()
    samples = path.samples()
    assert len(samples) == TRACE_GRID_DEFAULT + 1
    assert samples[0][0] == SIGMA_SPAN_DEFAULT
    assert abs(samples[-1][0] + SIGMA_SPAN_DEFAULT) < 1e-20
    return [s for s, _ in samples], [t for _, t in samples]


def test_trace_identity_function_is_ray():
    t = t_var()
    comp = CurveComponent(2, (t, (t - 1) / (t + 3)), 1)
    with workprec(128):
        paths = trace_wavefront(comp, 1, mp.mpf("0.05"), precision_bits=128)
        assert len(paths) == 1
        p = paths[0]
        sigmas, points = _grid_samples(p)
        # every sample on the ray arg t = pi - eps
        target = mp.pi - mp.mpf("0.05")
        for tt in points[::40]:
            assert abs(mp.arg(tt) - target) < 1e-30
        # radii strictly decreasing along the pole -> zero order
        radii = [mp.e ** s for s in sigmas]
        assert all(radii[k] > radii[k + 1] for k in range(len(radii) - 1))
        assert max(_margins(p, mp.mpf("0.05"))) < 1e-25


def test_trace_unperturbed_segment(z1):
    with workprec(128):
        paths = trace_wavefront(z1.components[0], 1, mp.mpf(0),
                                precision_bits=128)
        assert len(paths) == 1
        _, points = _grid_samples(paths[0])
        # pole of 1 - 1/t at t = 0, zero at t = 1; path runs (0, 1)
        assert abs(points[0]) < 1e-10
        assert abs(points[-1] - 1) < 1e-10
        for tt in points[::40]:
            assert -1e-25 < tt.real < 1 + 1e-25
            assert abs(tt.imag) < 1e-20


def test_trace_square_has_two_branches():
    t = t_var()
    comp = CurveComponent(2, (t * t, RationalFunction.from_rational(5, 1)), 1)
    with workprec(128):
        eps = mp.mpf("0.1")
        paths = trace_wavefront(comp, 1, eps, precision_bits=128)
        assert len(paths) == 2
        args = sorted(float(mp.arg(p.points[len(p.points) // 2])) for p in paths)
        expect_hi = float((mp.pi - eps) / 2)
        expect_lo = float((mp.pi - eps) / 2 - mp.pi)
        assert abs(args[1] - expect_hi) < 1e-12
        assert abs(args[0] - expect_lo) < 1e-12


def _higher_degree_candidates():
    t = t_var()
    return [
        (t * t - 2) / (t + 5),
        (t ** 3 - t - 3) / (t - 2),
        (t * t + t + 1),
        1 / (t * t * t - 2),
        (t - 1) * (t + 2) / ((t - 3) * (t + 4)),
    ]


def _counting_polyroots(monkeypatch):
    calls = []
    polyroots = mp.polyroots

    def counting(*args, **kwargs):
        calls.append(args)
        return polyroots(*args, **kwargs)

    monkeypatch.setattr(mp, "polyroots", counting)
    return calls


def test_branch_count_equals_degree():
    rng = random.Random(37)
    with workprec(128):
        for f in _higher_degree_candidates():
            comp = CurveComponent(2, (f, RationalFunction.from_rational(7, 1)), 1)
            phase = mp.mpf(rng.uniform(0.05, 0.3))
            paths = trace_wavefront(comp, 1, phase, precision_bits=128)
            assert len(paths) == f.degree_map


def test_higher_degree_trace_needs_one_root_solve(monkeypatch):
    # Newton on num - w den stays on every branch of a degree-2/3 level
    # set: the seed at the largest radius is the only polyroots call
    bits = 256
    rng = random.Random(41)
    bound = 2.0 ** (-bits // 3)
    calls = _counting_polyroots(monkeypatch)
    with workprec(bits):
        for f in _higher_degree_candidates():
            comp = CurveComponent(2, (f, RationalFunction.from_rational(7, 1)), 1)
            phase = mp.mpf(rng.uniform(0.05, 0.3))
            del calls[:]
            paths = trace_wavefront(comp, 1, phase, precision_bits=bits)
            assert len(calls) == 1
            assert len(paths) == f.degree_map
            for path in paths:
                assert max(_margins(path, phase)) < bound
                for sigma, t in zip(path.sigmas, path.points):
                    v = path.evaluator.value(t)
                    assert abs(mp.log(abs(v)) - sigma) < bound


@pytest.mark.parametrize("bits", [53, 64])
def test_trace_near_a_double_pole_needs_one_root_solve(monkeypatch, bits):
    # at the seed radius e^56 the two branches of 1 - 1/t^2 lie about
    # 2 e^-28 apart around its double pole t = 0, closer than 2^(-prec/2);
    # measured against their previous separation they only move apart, so
    # the trace declares no collision and the seed is the one root solve
    t = t_var()
    f = RationalFunction.from_rational(1, 1) - 1 / (t * t)
    comp = CurveComponent(2, (f, RationalFunction.from_rational(7, 1)), 1)
    calls = _counting_polyroots(monkeypatch)
    phase = mp.mpf("0.1")
    with workprec(bits):
        paths = trace_wavefront(comp, 1, phase, precision_bits=bits)
        assert len(calls) == 1
        assert len(paths) == 2
        # on the ray at the sample's radius, in the relative measure
        # |f(t) - w| / (|w| + 1) of the solve's tolerance
        bound = mp.mpf(2) ** (-bits / 3)
        direction = mp.expj(mp.pi - phase)
        for path in paths:
            for sigma, t in zip(path.sigmas, path.points):
                w = mp.exp(sigma) * direction
                assert abs(path.evaluator.value(t) - w) < bound * (abs(w) + 1)


@pytest.mark.parametrize("bits, phase, error, match", [
    # the critical values -5 +- sqrt(23) of f are negative reals; at phase
    # 1e-4 two branches run onto one another near the ray
    (128, "1e-4", ScheduleError, "branch collision"),
    # the seed next to the pole t = -5 is not told apart from it at 64 bits,
    # and the first step from it fails
    (64, "0.15", PrecisionError, "64 bits"),
])
def test_trace_failure_contract(monkeypatch, bits, phase, error, match):
    t = t_var()
    comp = CurveComponent(2, ((t * t - 2) / (t + 5),
                              RationalFunction.from_rational(7, 1)), 1)
    calls = _counting_polyroots(monkeypatch)
    with workprec(bits):
        with pytest.raises(error, match=match):
            trace_wavefront(comp, 1, mp.mpf(phase), precision_bits=bits)
    # every root solve is an attempt at the seed
    assert len({tuple(args[0]) for args in calls}) == 1


@pytest.mark.parametrize("bits", [128, 256])
def test_moebius_trace_needs_no_root_solve(z1, petras, mccarthy, monkeypatch,
                                           bits):
    # every shipped first coordinate is Moebius: the path is its exact
    # inverse, so neither the trace nor its points on the grid need polyroots
    calls = _counting_polyroots(monkeypatch)
    bound = 2.0 ** (-bits // 3)
    with workprec(bits):
        for Z in (z1, petras, mccarthy):
            for comp in Z.components:
                (path,) = trace_wavefront(comp, 1, mp.mpf("0.1"),
                                          precision_bits=bits)
                _grid_samples(path)
                assert max(_margins(path, mp.mpf("0.1"))) < bound
    assert calls == []


def _count_kernel_calls(monkeypatch):
    counts = {"residual": 0, "newton_step": 0, "_horner": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("residual", "newton_step"):
        monkeypatch.setattr(RFEvaluator, name,
                            counting(name, getattr(RFEvaluator, name)))
    monkeypatch.setattr(RFEvaluator, "_horner",
                        staticmethod(counting("_horner", RFEvaluator._horner)))
    return counts


def _point_at_kernel_calls(comp, monkeypatch):
    """Kernel calls of one ``solve_at`` between two points of the trace
    grid away from any pole; next to one, the floor rule would end the solve
    with two extra Horner passes."""
    phase = mp.mpf("0.1")
    with workprec(128):
        path = trace_wavefront(comp, 1, phase, precision_bits=128)[0]
        sigmas = [s for s, _ in path.samples()]
        counts = _count_kernel_calls(monkeypatch)
        k = len(sigmas) // 2
        sigma = (sigmas[k] + sigmas[k + 1]) / 2
        t = path.solve_at(sigma)[0]
        calls = dict(counts)
        target = mp.e ** sigma * mp.e ** (1j * (mp.pi - phase))
        assert abs(path.evaluator.value(t) - target) < 1e-30 * abs(target)
    return calls


def test_point_at_runs_the_fused_newton_kernel(z1, monkeypatch):
    # on the Moebius 1 - 1/t solve_at evaluates the exact inverse: no
    # residual, Newton step or nearest-sample lookup, and four Horner
    # passes, num and den of f^-1 at w and of f at t
    monkeypatch.setattr(TracedPath, "_nearest_index", None)
    counts = _point_at_kernel_calls(z1.components[0], monkeypatch)
    assert counts == {"residual": 0, "newton_step": 0, "_horner": 4}


def test_moebius_trace_reads_num_and_den_from_the_solve(z1, monkeypatch):
    # the trace of a Moebius coordinate evaluates nothing, and the
    # resolution check of each point on the grid reads the num(t) and
    # den(t) that solve_at computed: four Horner passes per point
    counts = _count_kernel_calls(monkeypatch)
    with workprec(128):
        (path,) = trace_wavefront(z1.components[0], 1, mp.mpf("0.1"),
                                  precision_bits=128)
        assert counts == {"residual": 0, "newton_step": 0, "_horner": 0}
        _grid_samples(path)
    assert counts == {"residual": 0, "newton_step": 0,
                      "_horner": 4 * (TRACE_GRID_DEFAULT + 1)}


def test_solve_at_passes_on_num_and_den_of_the_solve(z1, graph_4_2):
    # on a Moebius path solve_at returns (t, num(t), den(t)) for
    # t = f^-1(w) once the resolution check accepts them, and next to a
    # finite pole as far from it
    with workprec(128):
        for comp, i in ((z1.components[0], 1), (graph_4_2.components[0], 2)):
            (path,) = trace_wavefront(comp, i, mp.mpf("0.1"),
                                      precision_bits=128)
            ev = path.evaluator
            inverse = comp.coords[i - 1].inverse().evaluator(128)
            for sigma in (mp.mpf(SIGMA_SPAN_DEFAULT), mp.mpf("0.3"),
                          -mp.mpf(SIGMA_SPAN_DEFAULT)):
                t = inverse.value(mp.exp(sigma) * path.direction)
                assert path.solve_at(sigma) == (
                    t, RFEvaluator._horner(ev.nc, t),
                    RFEvaluator._horner(ev.dc, t))


def test_trace_computes_no_per_sample_margin(z1, monkeypatch):
    # the trace keeps no arg residual per sample: a whole regulator() of
    # Totaro makes fewer margin checks than one trace has samples
    import chowreg.wavefront as wf

    calls = []
    margin = wf._on_cut_margin

    def counting(*args):
        calls.append(args)
        return margin(*args)

    monkeypatch.setattr(wf, "_on_cut_margin", counting)
    with workprec(128):
        regulator(z1, precision_bits=128)
    assert len(calls) < TRACE_GRID_DEFAULT


def test_point_at_reports_a_critical_point_as_convergence_error(monkeypatch):
    # a ZeroDivisionError from the solve (a critical point on the level
    # set) leaves solve_at as a ConvergenceError naming the log-radius
    t = t_var()
    comp = CurveComponent(2, ((t * t - 2) / (t + 5),
                              RationalFunction.from_rational(7, 1)), 1)
    with workprec(128):
        path = trace_wavefront(comp, 1, mp.mpf("0.1"), precision_bits=128)[0]

        def critical(self, *args):
            raise ZeroDivisionError("critical point in Newton step")

        monkeypatch.setattr(RFEvaluator, "newton_step", critical)
        k = len(path.sigmas) // 2
        sigma = (path.sigmas[k] + path.sigmas[k + 1]) / 2
        with pytest.raises(ConvergenceError,
                           match=f"log-radius {float(sigma):.4f}"):
            path.solve_at(sigma)


def test_point_at_iterates_on_a_degree_two_locus(monkeypatch):
    # on (t^2 - 2)/(t + 5) Newton takes more than one step, each at four
    # Horner passes
    t = t_var()
    comp = CurveComponent(2, ((t * t - 2) / (t + 5),
                              RationalFunction.from_rational(7, 1)), 1)
    counts = _point_at_kernel_calls(comp, monkeypatch)
    k = counts["residual"]
    assert k >= 3
    assert counts["newton_step"] == k - 1
    assert counts["_horner"] == 2 * k + 2 * (k - 1)


def test_point_at_refuses_a_log_radius_outside_the_trace(z1):
    # a traced branch is solved only within its samples; a Moebius path is
    # its exact inverse at every radius, far beyond the trace grid too
    (Z,) = parse_cycle_file("field cyclotomic(1)\ncycle totaro_s2 n=3 p=2\n"
                            "component mult=1 1-1/(t^2) ; 1-(t^2) ; 1/(t^2)\n")
    with workprec(128):
        path = trace_wavefront(Z.components[0], 1, mp.mpf("0.1"),
                               precision_bits=128)[0]
        assert path.points
        for sigma in (path.sigmas[0] + 1, path.sigmas[-1] - 1):
            with pytest.raises(ChowregError, match="outside the traced range"):
                path.solve_at(sigma)
        path.solve_at(path.sigmas[-1])
    with workprec(256):
        (path,) = trace_wavefront(z1.components[0], 1, mp.mpf("0.1"),
                                  precision_bits=256)
        for sigma in (80, -80):
            t = path.solve_at(sigma)[0]
            assert abs(mp.log(abs(path.evaluator.value(t))) - sigma) \
                < 2.0 ** (-256 // 3)


@pytest.mark.parametrize("bits", [128, 256])
def test_trace_near_finite_pole_needs_one_root_solve(graph_4_2, monkeypatch,
                                                     bits):
    # next to the pole t = 2 of (t - 4)/(t - 2) the exact inverse places
    # every point on the grid without a polyroots solve, and each one keeps
    # its radius and its cut ray to 2^(-prec/3)
    calls = _counting_polyroots(monkeypatch)
    with workprec(bits):
        (path,) = trace_wavefront(graph_4_2.components[0], 2, mp.mpf("0.1"),
                                  precision_bits=bits)
        sigmas, points = _grid_samples(path)
        assert len(calls) == 0
        bound = 2.0 ** (-bits // 3)
        assert max(_margins(path, mp.mpf("0.1"))) < bound
        for sigma, t in zip(sigmas, points):
            assert abs(mp.log(abs(path.evaluator.value(t))) - sigma) < bound


def test_pair_intersections_z1_empty(z1):
    with workprec(128):
        s = make_schedule(0.3, 3, 0.5)
        paths = trace_wavefront(z1.components[0], 1, s.phases[0],
                                precision_bits=128)
        hits = find_pair_intersections(z1.components[0], paths, 2, s.phases[1],
                                       precision_bits=128)
        assert hits == []


def test_traces_at_one_phase_share_one_direction(z1):
    # the direction of a cut ray is made once per phase and precision, so
    # two traces there hold one object, an equal phase read from a float
    # the same value, and a trace at another precision its own
    comp = z1.components[0]
    with workprec(128):
        s = make_schedule(0.3, 3, 0.5)
        paths = trace_wavefront(comp, 1, s.phases[0], precision_bits=128)
        again = trace_wavefront(comp, 1, s.phases[0], precision_bits=128)
        assert again[0].direction is paths[0].direction
        assert paths[0].direction is _direction(s.phases[0], 128)
        assert _direction(float(s.phases[0]), 128) == paths[0].direction
        assert find_pair_intersections(comp, paths, 2, s.phases[1],
                                       precision_bits=128) == []
        finer = trace_wavefront(comp, 1, s.phases[0], precision_bits=256)
        assert finer[0].direction is not paths[0].direction


@pytest.mark.parametrize("index", [0, -1, 4, 1.5, True])
def test_trace_refuses_a_coordinate_index_out_of_range(z1, index):
    # the indices of a 3-cube cycle's coordinates are 1, 2 and 3; 0 and -1
    # would wrap round to coordinate 3 under Python indexing, and True
    # would pass for 1
    with workprec(128):
        with pytest.raises(ChowregError):
            trace_wavefront(z1.components[0], index, mp.mpf("0.1"),
                            precision_bits=128)


@pytest.mark.parametrize("j", [0, 1, 4])
def test_pair_intersections_refuse_a_bad_cut_index(z1, j):
    # the cut must be another coordinate of the cycle than the host
    # paths' own, here coordinate 1
    with workprec(128):
        paths = trace_wavefront(z1.components[0], 1, mp.mpf("0.1"),
                                precision_bits=128)
        with pytest.raises(ChowregError):
            find_pair_intersections(z1.components[0], paths, j,
                                    mp.mpf("0.05"), precision_bits=128)


def test_pair_intersections_constant_off_cut():
    t = t_var()
    comp = CurveComponent(2, (t, RationalFunction.from_rational(5, 1)), 1)
    with workprec(128):
        paths = trace_wavefront(comp, 1, mp.mpf("0.1"), precision_bits=128)
        hits = find_pair_intersections(comp, paths, 2, mp.mpf("0.05"),
                                       precision_bits=128)
        assert hits == []


def test_pair_intersection_single_transverse(graph_1_m3):
    comp = graph_1_m3.components[0]
    with workprec(128):
        paths = trace_wavefront(comp, 1, mp.mpf("0.05"), precision_bits=128)
        hits = find_pair_intersections(comp, paths, 2, mp.mpf("0.01"),
                                       precision_bits=128)
        assert len(hits) == 1
        hit = hits[0]
        assert hit.sign in (-1, 1)
        # both argument conditions hold at the refined point
        f1, f2 = comp.coords
        v1 = f1.eval(hit.t, 128).value
        v2 = f2.eval(hit.t, 128).value
        assert abs(mp.arg(-v1 * mp.e ** (1j * mp.mpf("0.05")))) < 1e-25
        assert abs(mp.arg(-v2 * mp.e ** (1j * mp.mpf("0.01")))) < 1e-25


def test_pair_intersection_count_stable_under_phase_halving(graph_1_m3):
    comp = graph_1_m3.components[0]
    with workprec(128):
        counts = []
        for e1, e2 in ((mp.mpf("0.05"), mp.mpf("0.01")),
                       (mp.mpf("0.025"), mp.mpf("0.005"))):
            paths = trace_wavefront(comp, 1, e1, precision_bits=128)
            hits = find_pair_intersections(comp, paths, 2, e2,
                                           precision_bits=128)
            counts.append(sum(h.sign for h in hits))
        assert counts[0] == counts[1]


def test_admissible_counterexample_equal_phase(mccarthy):
    with workprec(128):
        for eps in ("0.05", "0.1", "0.2", "0.4"):
            e = mp.mpf(eps)
            rep = admissible(mccarthy, PhaseSchedule(1, (e, e, e)),
                             precision_bits=128)
            assert not rep.ok
            triples = [f for f in rep.failures if f.kind == "triple"]
            assert triples
            witness = triples[0].witness.value
            assert abs(witness - mp.tan(e)) < 1e-6


@pytest.mark.parametrize("coord2, witness", [
    # critical point 5/2 with value -1/4 on the phase-0 ray
    (lambda t: (t - 2) * (t - 3), mp.mpf("2.5")),
    # no finite critical point, but f(oo) = -1 lies on the phase-0 ray
    (lambda t: (3 - t) / (t + 2), None),
])
def test_admissible_critical_value_on_cut(coord2, witness):
    # only coordinate 1 is traced, so coordinate 2 is judged exactly
    t = t_var()
    comp = CurveComponent(3, (t, coord2(t), RationalFunction.from_rational(5, 1)), 1)
    Z = Precycle(3, 2, [comp], order=1)
    with workprec(128):
        rep = admissible(Z, PhaseSchedule(1, (0.1, 0, 0.001)),
                         precision_bits=128)
        crit = [f for f in rep.failures if f.kind == "critical-value"]
        assert len(crit) == 1
        if witness is None:
            assert crit[0].witness is None
        else:
            assert abs(crit[0].witness.value - witness) < 1e-30
        # a generic phase puts the critical value off the ray
        rep = admissible(Z, PhaseSchedule(1, (0.1, 0.01, 0.001)),
                         precision_bits=128)
        assert not [f for f in rep.failures if f.kind == "critical-value"]


def test_admissible_does_not_trace_a_first_locus_with_a_critical_value(
        monkeypatch):
    # the critical value -1/4 of (t - 2)(t - 3) lies on the phase-0 ray, so
    # the first locus is no union of branches and there is nothing to trace
    import chowreg.wavefront as wf

    traces = []
    trace = wf.trace_wavefront

    def counting(*args, **kwargs):
        traces.append(args)
        return trace(*args, **kwargs)

    monkeypatch.setattr(wf, "trace_wavefront", counting)
    t = t_var()
    comp = CurveComponent(3, ((t - 2) * (t - 3), t,
                              RationalFunction.from_rational(5, 1)), 1)
    Z = Precycle(3, 2, [comp], order=1)
    with workprec(128):
        rep = admissible(Z, PhaseSchedule(1, (0, 0.01, 0.001)),
                         precision_bits=128)
    assert [f.kind for f in rep.failures] == ["critical-value"]
    assert abs(rep.failures[0].witness.value - mp.mpf("2.5")) < 1e-30
    assert traces == []


def test_admissible_z1_at_zero_phases(z1):
    with workprec(128):
        rep = admissible(z1, PhaseSchedule(1, (0, 0, 0)), precision_bits=128)
        assert rep.ok


def test_admissible_empty_cycle():
    empty = Precycle(3, 2, [], order=1)
    with workprec(128):
        rep = admissible(empty, PhaseSchedule(1, (0.1, 0.01, 0.001)),
                         precision_bits=128)
        assert rep.ok


def test_search_schedule_z1(z1):
    with workprec(128):
        s = search_schedule(z1, 0.3, precision_bits=128)
        assert s.is_b_nested()
        assert admissible(z1, s, precision_bits=128).ok


def test_search_schedule_counterexample(mccarthy):
    with workprec(128):
        s = search_schedule(mccarthy, 0.3, precision_bits=128)
        assert s.is_b_nested()
        assert len(set(s.phases)) == 3
        # the admissibility checker is its own oracle here
        assert admissible(mccarthy, s, precision_bits=128).ok


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_mccarthy_crossing_holds_its_oracle(mccarthy, bits):
    # at the schedule the search accepts, each crossing lies on ray 1 of
    # f_1 = it - 1 and on cut 2 of f_2 within its radius, 64 bits higher:
    # the root of Im(e^{i eps_2} f_2) along t(sigma) = f_1^-1(e^sigma
    # e^{i(pi - eps_1)}), found here by the secant method from the formulas
    # of the fixture, is within the radius in t and sigma, f_2 is on the
    # negative side there, and the sign is that of d Im(e^{i eps_2} f_2) /
    # dsigma (arg f_2 rises through pi as the radius falls)
    with workprec(bits):
        rep = search_admissible(mccarthy, 0.3, seed=0, precision_bits=bits)
    crossings = [c for cs in rep.crossings.values() for c in cs]
    assert crossings
    with workprec(bits + 64):
        i = mp.mpc(0, 1)
        eps1, eps2 = rep.schedule.phases[:2]
        rot1, rot2 = mp.expj(eps1), mp.expj(eps2)

        def f1(t):
            return i * t - 1

        def f2(t):
            return -((1 + t) * (1 + 3 * t)) / ((1 + i * t) * (1 - 2 * t))

        def t_at(sigma):
            return (mp.exp(sigma) * mp.expj(mp.pi - eps1) + 1) / i

        def g(sigma):
            return (rot2 * f2(t_at(sigma))).imag

        for c in crossings:
            radius = c.t.radius
            t = mp.mpc(c.t.value)
            assert abs((rot1 * f1(t)).imag) <= radius
            assert abs((rot2 * f2(t)).imag) <= abs(mp.diff(f2, t)) * radius
            sigma = mp.findroot(g, mp.mpf(c.sigma))
            assert abs(sigma - c.sigma) <= radius
            assert abs(t_at(sigma) - t) <= radius
            assert (rot2 * f2(t_at(sigma))).real < 0
            assert c.sign == (1 if mp.diff(g, sigma) > 0 else -1)


def test_search_schedule_petras(petras):
    with workprec(128):
        s = search_schedule(petras, 0.3, precision_bits=128)
        assert admissible(petras, s, precision_bits=128).ok


def test_regulator_builds_each_evaluator_once(monkeypatch):
    # the trace, the crossings, the triple-point test and reg_n3 share one
    # evaluator per function and precision: every evaluator a Petras
    # regulator() builds belongs to a coordinate or to a chart w = f_1 of
    # one, none is built twice, each chart is composed once, and a second
    # call builds and composes nothing
    built, composed = [], []
    init, compose = RFEvaluator.__init__, RationalFunction.compose

    def counting(self, rf, precision_bits):
        built.append(rf)
        init(self, rf, precision_bits)

    def composing(self, g):
        composed.append(self)
        return compose(self, g)

    monkeypatch.setattr(RFEvaluator, "__init__", counting)
    monkeypatch.setattr(RationalFunction, "compose", composing)
    Z = load_fixture("petras_zeta5")
    with workprec(128):
        regulator(Z, precision_bits=128)
        first, first_composed = list(built), list(composed)
        del built[:], composed[:]
        regulator(Z, precision_bits=128)
    assert built == [] and composed == []
    charts = [chart for comp in Z.components
              for key, chart in comp._memo.items() if key[0] == "chart"]
    coords = [f for comp in Z.components for f in comp.coords]
    assert len(charts) == len(first_composed) == len(Z.components)
    assert len(set(map(id, first))) == len(first)
    assert set(map(id, first)) <= set(map(id, coords + charts))
    assert set(map(id, charts)) <= set(map(id, first))


def _refused_schedules(monkeypatch, seed):
    """The schedules search_admissible tries on Totaro at 128 bits when
    admissible refuses every one, and the ScheduleError it ends with."""
    import chowreg.wavefront as wf

    tried = []

    def refuse(Z, schedule, precision_bits=None):
        tried.append(schedule)
        return wf.AdmissibilityReport(
            ok=False, schedule=schedule, failures=[wf.AdmissibilityFailure(
                "critical-value", len(tried) - 1, "refused")])

    monkeypatch.setattr(wf, "admissible", refuse)
    with workprec(128), pytest.raises(ScheduleError) as err:
        wf.search_admissible(load_fixture("z1_totaro"), 0.3, seed=seed,
                             precision_bits=128)
    return tried, str(err.value)


def test_schedule_search_walks_its_whole_ladder(monkeypatch):
    # twelve attempts: the ten fixed lambdas, then two jittered by the seed,
    # with the bound shrunk by 0.6 after every third refusal
    tried, message = _refused_schedules(monkeypatch, 0)
    assert len(tried) == SCHEDULE_ATTEMPTS == 12
    lams = []
    with workprec(128):
        for k, s in enumerate(tried):
            bound = mp.mpf(0.3) * mp.mpf("0.6") ** (k // 3)
            assert abs(s.eps_bound - bound) < 1e-30
            lams.append(float(s.phases[0] / s.eps_bound))
            assert s.is_b_nested()
    assert lams[:10] == pytest.approx(
        [0.5, 0.35, 0.65, 0.8, 0.25, 0.45, 0.7, 0.3, 0.55, 0.6], abs=1e-15)
    assert all(0.2 <= lam < 0.8 for lam in lams[10:])
    assert lams[10] != lams[11]
    assert message == (
        "no admissible schedule found in 12 attempts from bound 0.3; last "
        "failures: critical-value (component 11)")
    again, _ = _refused_schedules(monkeypatch, 0)
    other, _ = _refused_schedules(monkeypatch, 1)
    assert [s.phases for s in again] == [s.phases for s in tried]
    assert [s.phases for s in other[:10]] == [s.phases for s in tried[:10]]
    assert all(a.phases[0] != b.phases[0] for a, b in zip(other[10:],
                                                          tried[10:]))


SCHEDULE_LAMBDAS = (0.5, 0.35, 0.65, 0.8, 0.25)


@pytest.mark.parametrize("name, calls", [
    ("petras_zeta5", 24), ("mccarthy_counterexample", 10), ("z1_totaro", 8)])
def test_admissible_evaluates_at_divisor_points_once(name, calls,
                                                      monkeypatch):
    # facet parameters and endpoints of the first locus depend on the
    # component alone: the first schedule evaluates them, the later ones
    # read them from the component
    import chowreg.wavefront as wf

    seen = []
    value_at = wf._coordinate_value_at

    def counting(*args):
        seen.append(args)
        return value_at(*args)

    monkeypatch.setattr(wf, "_coordinate_value_at", counting)
    Z = load_fixture(name)
    counts = []
    with workprec(128):
        for lam in SCHEDULE_LAMBDAS:
            admissible(Z, make_schedule(0.3, 3, lam, 128), precision_bits=128)
            counts.append(len(seen))
    assert counts == [calls] * len(SCHEDULE_LAMBDAS)


def test_crossing_search_refines_no_positive_axis_root(z1, petras, mccarthy,
                                                       monkeypatch):
    # a root of Im(e^{i eps_2} f_2) where f_2 crosses the positive real axis
    # is dropped before refinement: every refinement finds a cut crossing,
    # none on Totaro and Petras, one per schedule on McCarthy
    import chowreg.wavefront as wf

    refined = []
    refine = wf._refine_crossing

    def counting(*args):
        refined.append(refine(*args))
        return refined[-1]

    monkeypatch.setattr(wf, "_refine_crossing", counting)
    with workprec(128):
        for Z, expected in ((z1, 0), (petras, 0), (mccarthy, 5)):
            del refined[:]
            found = 0
            for lam in SCHEDULE_LAMBDAS:
                rep = admissible(Z, make_schedule(0.3, 3, lam, 128),
                                 precision_bits=128)
                found += sum(map(len, rep.crossings.values()))
            assert None not in refined
            assert len(refined) == found == expected


def _report_key(rep):
    def witness(w):
        return None if w is None else (w.value, w.radius)

    return (rep.ok,
            [[(f.kind, f.component, f.detail, witness(f.witness))
              for f in failures] for failures in (rep.failures, rep.warnings)],
            {ci: [(c.t.value, c.t.radius, c.sign, c.sigma) for c in cs]
             for ci, cs in rep.crossings.items()})


def _critical_value_cycle(coord2):
    t = t_var()
    comp = CurveComponent(3, (t, coord2(t), RationalFunction.from_rational(5, 1)), 1)
    return Precycle(3, 2, [comp], order=1)


def test_warm_and_fresh_components_give_equal_reports():
    # the off-cut values kept on a component give the reports a freshly
    # built one gives, failing schedules included
    cases = [(lambda: load_fixture("mccarthy_counterexample"),
              [(e, e, e) for e in ("0.05", "0.1", "0.2", "0.3", "0.4")]
              + [(0.15, 0.01, 0.001)]),
             (lambda: parse_cycle_file(
                 "field cyclotomic(1)\ncycle c n=2 p=1\n"
                 "component mult=1 t ; -1\n")[0], [(0.1, 0), (0.1, 0.01)]),
             # f_2(0) = -2 at the zero of f_1: an endpoint on the second cut
             (lambda: parse_cycle_file(
                 "field cyclotomic(1)\ncycle e n=2 p=1\n"
                 "component mult=1 t ; (t-2)/(t+1)\n")[0], [(0.1, 0)])]
    cases += [(lambda coord2=coord2: _critical_value_cycle(coord2),
               [(0.1, 0, 0.001), (0.1, 0.01, 0.001)])
              for coord2 in (lambda t: (t - 2) * (t - 3),
                             lambda t: (3 - t) / (t + 2))]
    kinds = set()
    with workprec(128):
        for build, phase_lists in cases:
            warm = build()
            for phases in phase_lists:
                s = PhaseSchedule(1, tuple(mp.mpf(p) for p in phases))
                reports = [admissible(Z, s, precision_bits=128)
                           for Z in (warm, build())]
                assert _report_key(reports[0]) == _report_key(reports[1])
                kinds.update(f.kind for f in reports[0].failures)
    assert kinds == {"triple", "constant-on-cut", "endpoint-on-cut",
                     "critical-value"}


@pytest.mark.parametrize("text, phases, kind", [
    ("t ; -1", (0.1, 0), "constant-on-cut"),
    ("t ; (3-t)/(t+2) ; 5", (0.1, 0, 0.001), "critical-value"),
], ids=["constant", "critical_value_at_endpoint"])
def test_each_value_on_a_cut_is_reported_once(text, phases, kind):
    # a constant coordinate is also its value at both endpoints of the
    # first locus, and f_2(oo) = -1 of a coordinate of equal degrees is
    # both a critical value and its value at the pole oo of f_1: each fact
    # on the second cut is listed and fails once, as the kind listed first
    n = text.count(";") + 1
    Z = parse_cycle_file(f"field cyclotomic(1)\ncycle c n={n} p={n - 1}\n"
                         f"component mult=1 {text}\n")[0]
    with workprec(128):
        rep = admissible(Z, PhaseSchedule(1, phases), precision_bits=128)
        entries = [e for e in _off_cut_entries(Z.components[0], 128)
                   if e[0] == 2]
    assert not rep.ok
    assert [f.kind for f in rep.failures] == [kind]
    assert rep.warnings == []
    values = [e[2].value if isinstance(e[2], ComplexApprox) else e[2]
              for e in entries]
    assert values.count(-1) == 1


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_a_zero_or_pole_at_an_irrational_point_is_exact(bits):
    # Totaro o (s^2 - 2)/(s + 5): f_1 = 1 - 1/g and f_2 = 1 - g vanish at
    # the irrational zeros of g - 1, and f_1 and f_3 = 1/g have poles at the
    # zeros of g.  Those values lie on no ray; read from rounded residues
    # they were near 2^(-prec) or 2^prec and could fail as facet or endpoint
    # values on a cut.  Only f_3's real negative critical values are left
    # on a cut (margin rule open), so regulator() still finds no schedule
    g = "(t^2-2)/(t+5)"
    (Z,) = parse_cycle_file(
        "field cyclotomic(1)\ncycle c n=3 p=2\n"
        f"component mult=1 1-1/({g}) ; 1-({g}) ; 1/({g})\n")
    with workprec(bits):
        for _, _, value, *_ in _off_cut_entries(Z.components[0], bits):
            assert 2.0 ** (-bits / 2) <= abs(value) <= 2.0 ** (bits / 2)
        if bits == 128:
            rep = admissible(Z, make_schedule(mp.mpf("0.1") / 3, 3, 0.5),
                             precision_bits=bits)
            assert {f.kind for f in rep.failures} == {"critical-value"}
            with pytest.raises(ScheduleError):
                regulator(Z, precision_bits=bits)


def test_cut_margin_is_decided_without_an_arctangent(monkeypatch):
    # the sector test agrees with the angle against CUT_MARGIN at, just
    # inside and just outside the margin, on either side of the ray, at
    # any size; admissible takes the angle only of a failing entry, for
    # its detail
    import chowreg.wavefront as wf

    with workprec(128):
        for phase in (0, mp.mpf("0.3"), 2, mp.pi / 2):
            rot = _rotation(phase, 128)[0]
            for angle in (0, 5e-10, 9.99e-10, 1.001e-9, 2e-9, 1e-3, 1.5, 3,
                          mp.pi):
                for side in (1, -1):
                    for size in (mp.mpf("1e-30"), 1, mp.mpf("1e30")):
                        v = -size * mp.expj(side * angle) / rot
                        assert wf._near_cut(v, rot, double_image(v),
                                            double_image(rot)) == (
                            _on_cut_margin(v, rot) < wf.CUT_MARGIN)
    margins = []
    on_cut_margin = wf._on_cut_margin

    def counting(*args):
        margins.append(args)
        return on_cut_margin(*args)

    monkeypatch.setattr(wf, "_on_cut_margin", counting)
    with workprec(128):
        ok = admissible(load_fixture("petras_zeta5"),
                        make_schedule(0.3, 3, 0.5, 128), precision_bits=128)
        assert ok.ok and margins == []
        e = mp.mpf("0.2")
        bad = admissible(load_fixture("mccarthy_counterexample"),
                         PhaseSchedule(1, (e, e, e)), precision_bits=128)
    assert not bad.ok
    assert len(margins) == len(bad.failures) + len(bad.warnings) > 0


def test_schedule_phase_count_must_match(z1):
    with workprec(128):
        with pytest.raises(ChowregError):
            admissible(z1, PhaseSchedule(1, (0.1, 0.01)), precision_bits=128)


HIDDEN_CROSSING = """\
field cyclotomic(4)
cycle hidden_crossing n=2 p=1
component mult=1 t ; ((t+1-(1/5)*i)*(t+(11/10)-(11/50)*i))/((t+1)*(t+(11/10)))
"""


def test_a_cut_crossing_beside_a_positive_axis_crossing_is_counted():
    # at the schedule the search accepts, (0.15, 6.4e-4), f_2 crosses its
    # cut twice along the ray of f_1 = t, at log-radii -0.049 and 0.148,
    # and the positive real axis at 0.053, inside the grid step (0, 0.2)
    # of the second cut crossing; a scan of that step sees Im f_2 change
    # sign twice and brackets neither
    (Z,) = parse_cycle_file(HIDDEN_CROSSING)
    with workprec(128):
        s = search_schedule(Z, 0.3, seed=0, precision_bits=128)
        count = intersection_number_n2(Z, s, precision_bits=128)
        # an independent scan of Im(e^{i eps_2} f_2) on the ray, 2000 steps
        # over log-radii [-1, 1], counting sign changes with Re < 0; a sign
        # change from Im >= 0 to Im < 0 as the radius falls turns arg f_2
        # up through pi, a +1 crossing
        eps1, eps2 = s.phases
        i = mp.mpc(0, 1)

        def g(sigma):
            t = mp.exp(sigma) * mp.expj(mp.pi - eps1)
            f2 = ((t + 1 - i / 5) * (t + mp.mpf(11) / 10 - 11 * i / 50)
                  / ((t + 1) * (t + mp.mpf(11) / 10)))
            return mp.expj(eps2) * f2

        vals = [g(1 - mp.mpf(k) / 1000) for k in range(2001)]
        cut, positive_axis = [], []
        for k, (a, b) in enumerate(zip(vals, vals[1:])):
            if (a.imag >= 0) != (b.imag >= 0):
                crossing = (1 - mp.mpf(k) / 1000, 1 if a.imag >= 0 else -1)
                if a.real < 0 and b.real < 0:
                    cut.append(crossing)
                elif a.real > 0 and b.real > 0:
                    positive_axis.append(crossing)
    assert [sign for _, sign in cut] == [1, 1]
    # the second cut crossing and the positive-axis one share a grid step
    assert 0 < cut[0][0] < mp.mpf("0.2")
    assert [0 < sigma < mp.mpf("0.2") for sigma, _ in positive_axis] == [True]
    assert count == sum(sign for _, sign in cut) == 2


def test_a_crossing_beyond_the_trace_span_is_counted():
    # along the ray of f_1 = t, f_2 = t - 2^90 i crosses the negative real
    # axis, and its cut just beyond it, at log-radius 65.6: outside the
    # trace span, on the Moebius path all the same.  An independent scan of
    # Im(e^{i eps_2} f_2) over log-radii [0, 100] finds the one crossing
    (Z,) = parse_cycle_file("field cyclotomic(4)\ncycle far n=2 p=1\n"
                            f"component mult=1 t ; t-{2 ** 90}*i\n")
    with workprec(128):
        s = PhaseSchedule(1, (mp.mpf("0.05"), mp.mpf("0.01")))
        count = intersection_number_n2(Z, s, precision_bits=128)
        (crossing,) = admissible(Z, s, precision_bits=128).crossings[0]
        vals = [mp.expj(s.phases[1]) * (
            mp.exp(mp.mpf(k) / 20) * mp.expj(mp.pi - s.phases[0])
            - 2 ** 90 * mp.mpc(0, 1)) for k in range(2001)]
    cut = [k for k, (a, b) in enumerate(zip(vals, vals[1:]))
           if (a.imag >= 0) != (b.imag >= 0) and a.real < 0]
    assert [k / 20 for k in cut] == [65.6]
    assert SIGMA_SPAN_DEFAULT < crossing.sigma < 65.65
    assert count == 1


@pytest.mark.parametrize("bits", [128, 256])
def test_admissible_solves_a_moebius_path_at_a_handful_of_points(
        z1, petras, mccarthy, monkeypatch, bits):
    # a Moebius first locus is solved once per crossing, to place it: the
    # crossing polynomial is refined in the reals, never along the path or
    # on the 561-point trace grid.  Totaro and Petras have no crossing, and
    # the coefficients of their chart polynomials show it without a Taylor
    # shift
    import chowreg.wavefront as wf

    solves, shifts = [], []
    solve_at = TracedPath.solve_at
    taylor_shift = wf._taylor_shift

    def counting(self, *args):
        if not self.points:
            solves.append(self)
        return solve_at(self, *args)

    def counting_shift(*args):
        shifts.append(args)
        return taylor_shift(*args)

    monkeypatch.setattr(TracedPath, "solve_at", counting)
    monkeypatch.setattr(wf, "_taylor_shift", counting_shift)
    with workprec(bits):
        for Z in (z1, petras, mccarthy):
            for lam in (0.5, 0.35, 0.65):
                del solves[:], shifts[:]
                rep = admissible(Z, make_schedule(0.3, 3, lam, bits),
                                 precision_bits=bits)
                assert rep.ok
                paths = [p for ps in rep.paths.values() for p in ps]
                assert len(paths) == len(Z.components)
                assert len(solves) == sum(map(len, rep.crossings.values()))
                assert bool(solves) == (Z is mccarthy)
                assert bool(shifts) == (Z is mccarthy)
                # the root counts run on Python ints, not on mpf
                assert all(type(x) is int
                           for p, c in shifts for x in (*p, c))


def _exact_variations(p, a, b):
    """Sign variations in the coefficients of (1 + y)^n p((a + b y)/(1 + y)),
    n = len(p) - 1, expanded in Fractions from the exact binary values of
    the mpf ``p``, ``a`` and ``b``: the coefficient of y^m is
    sum_k p_k sum_(i + j = m) C(k, i) a^(k - i) b^i C(n - k, j)."""
    p, a, b = [mpf_to_fraction(c) for c in p], *map(mpf_to_fraction, (a, b))
    n = len(p) - 1
    coeffs = [sum(c * math.comb(k, i) * a ** (k - i) * b ** i
                  * math.comb(n - k, m - i)
                  for k, c in enumerate(p) for i in range(min(k, m) + 1)
                  if m - i <= n - k)
              for m in range(n + 1)]
    signs = [c > 0 for c in coeffs if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _kernel_cases(bits):
    """(p, a, b) at ``bits``: polynomials of degree 1 to 4 with clustered
    roots near 1, zero inner coefficients or a negative leading
    coefficient, on brackets whose ends have different binary exponents,
    straddle 1, are powers of two or are both even integers."""
    rng = random.Random(bits)
    h = mp.mpf(2) ** (-bits // 2)
    zero = mp.mpf(0)
    polys = [[mp.mpf(3), zero, zero, mp.mpf(-5)],
             [mp.mpf(-1), zero, mp.mpf(2), zero, mp.mpf(-1)],
             [mp.mpf(1) / 3, zero, zero, zero, -mp.mpf(7) / 5],
             [zero, mp.mpf(-2), mp.mpf(2)]]
    for _ in range(40):
        p = [mp.mpf(rng.choice((-1, 1)) * rng.uniform(0.1, 10))]
        for _ in range(rng.randint(1, 4)):
            root = 1 + rng.choice((1, h, h * h)) * rng.uniform(-4, 4)
            p = [c - root * d for c, d in zip([zero] + p, p + [zero])]
        polys.append(p)
    ends = [(mp.exp(-h), mp.exp(h)), (1 - h, 1 + 3 * h),
            (mp.mpf(1) - h * h, mp.mpf(1)), (mp.mpf(1), 1 + h),
            (mp.mpf("0.75"), mp.mpf(3)), (mp.mpf(1) / 2, mp.exp(mp.mpf(1))),
            (mp.mpf(1), mp.mpf(2)), (mp.mpf(2), mp.mpf(12)),
            (mp.mpf(2) ** -10, mp.exp(20))]
    return [(p, a, b) for p in polys for a, b in ends]


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_sign_variations_is_exact_on_the_binary_values(bits):
    # the Descartes count of _moebius_brackets runs on Python ints: the
    # mpf coefficients over one power of two and the bracket ends over
    # another; it equals the count of an exact expansion in Fractions
    counts = set()
    with workprec(bits):
        for p, a, b in _kernel_cases(bits):
            ints, e = _binary_ints(p)
            assert [n * Fraction(2) ** e for n in ints] == [
                mpf_to_fraction(c) for c in p]
            count = _sign_variations(ints, a, b)
            assert count == _exact_variations(p, a, b)
            counts.add(min(count, 2))
    assert counts == {0, 1, 2}


def test_a_schedule_too_deep_to_use_is_refused_at_once():
    # 1/eps_3 of this schedule is about 2^(6.3e5): exp(-1/eps_3) took 9 s
    # to build at 256 bits, and no evaluation can use it.  The guard at
    # 1/eps = 2^(2^12) refuses it before any exponential that deep
    start = time.perf_counter()
    with workprec(256):
        with pytest.raises(ScheduleError, match="underflow"):
            make_schedule(2, 4, 0.05)
    assert time.perf_counter() - start < 1


def test_every_schedule_the_regulator_tries_is_built():
    # regulator() searches from the bounds 0.3, 0.1 and 0.1/3, each shrunk
    # up to three times by 0.6, with lambda in [0.2, 0.8]: the deepest phase
    # it asks for has 1/eps_2 of about 2^1004, far inside the guard
    lams = [mp.mpf(x) for x in ("0.2", "0.25", "0.5", "0.8")]
    with workprec(128):
        for bound in (mp.mpf("0.3"), mp.mpf("0.1"), mp.mpf("0.1") / 3):
            for k in range(4):
                for lam in lams:
                    s = make_schedule(bound * mp.mpf("0.6") ** k, 3, lam)
                    assert mp.log(1 / s.phases[1], 2) < 1010


# the lambda ladder of search_admissible's first ten attempts
_SEARCH_LAMS = (0.5, 0.35, 0.65, 0.8, 0.25, 0.45, 0.7, 0.3, 0.55, 0.6)


def _search_ladder(bits):
    """(bound, lambda) of every schedule of the ladder that regulator()'s
    three searches walk at ``bits``: the bounds 0.3, 0.1 and 0.1/3, each
    shrunk by 0.6 after every third attempt, as the search makes them."""
    ladder = []
    with workprec(bits):
        bound = mp.mpf(0.3)
        for _ in range(3):
            eps = bound
            for k, lam in enumerate(_SEARCH_LAMS):
                ladder.append((eps, lam))
                if (k + 1) % 3 == 0:
                    eps = eps * mp.mpf("0.6")
            bound = bound / 3
    return ladder


def test_equal_schedule_arguments_return_one_schedule():
    # a schedule depends only on its bound, n, lambda and precision, so
    # arguments equal once read at the caller's precision share one
    # schedule
    with workprec(128):
        s = make_schedule(0.3, 3, 0.5)
        assert make_schedule(mp.mpf(0.3), 3, mp.mpf("0.5"), 128) is s
        assert make_schedule(0.3, 3, 0.5, precision_bits=256) is not s
        assert make_schedule(0.3, 2, 0.5) is not s


@pytest.mark.parametrize("bits", [53, 128, 256, 1024])
def test_a_kept_schedule_is_the_schedule_built_afresh(bits):
    # every schedule of the search's ladder, kept, has the phases, bound
    # and description of the one built again once the table is emptied
    for n in (1, 2, 3):
        for bound, lam in _search_ladder(bits):
            with workprec(bits):
                kept = make_schedule(bound, n, lam, bits)
                assert make_schedule(bound, n, lam, bits) is kept
                _built_schedule.cache_clear()
                fresh = make_schedule(bound, n, lam, bits)
            assert fresh is not kept
            assert ([p._mpf_ for p in fresh.phases]
                    == [p._mpf_ for p in kept.phases])
            assert fresh.eps_bound._mpf_ == kept.eps_bound._mpf_
            assert fresh.describe() == kept.describe()


def test_a_string_bound_is_read_at_the_caller_precision():
    # "0.3" read at 53 bits and at 256 bits are two bounds, so two
    # schedules, though both are built at 128 bits
    _built_schedule.cache_clear()
    with workprec(53):
        low = make_schedule("0.3", 3, 0.5, 128)
    with workprec(256):
        high = make_schedule("0.3", 3, 0.5, 128)
    assert low is not high
    assert low.eps_bound != high.eps_bound
    assert _built_schedule.cache_info().currsize == 2


def test_a_refused_schedule_is_refused_on_every_call():
    # an exception is never kept: each call raises it again
    with workprec(256):
        size = _built_schedule.cache_info().currsize
        for _ in range(3):
            with pytest.raises(ScheduleError, match="underflow"):
                make_schedule(2, 4, 0.05)
            with pytest.raises(ChowregError, match="lambda"):
                make_schedule(0.3, 3, 1)
        assert _built_schedule.cache_info().currsize == size


def test_an_equal_phase_check_makes_one_rotation(mccarthy, monkeypatch):
    # a check at (eps, eps, eps) makes e^{i eps} once for its three phases,
    # and the direction e^{i(pi - eps)}: two mp.expj calls, one entry of
    # each table
    _rotation.table.cache_clear()
    _direction.table.cache_clear()
    calls = []
    expj = mp.expj
    monkeypatch.setattr(mp, "expj", lambda z: calls.append(z) or expj(z))
    with workprec(128):
        eps = mp.mpf("0.2")
        admissible(mccarthy, PhaseSchedule(1, (eps, eps, eps)),
                   precision_bits=128)
    assert len(calls) == 2
    assert _rotation.table.cache_info().currsize == 1
    assert _direction.table.cache_info().currsize == 1


ALONG_THE_CUT = ["t ; 2*t ; (t-2)/(t+3)",
                 "(t-1)/(t+2) ; 3*(t-1)/(t+2) ; (t-5)/(t+3)"]


def _n3_cycle(text):
    (Z,) = parse_cycle_file("field cyclotomic(1)\ncycle c n=3 p=2\n"
                            f"component mult=1 {text}\n")
    return Z


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("text", ALONG_THE_CUT, ids=["t", "moebius"])
def test_a_first_locus_along_the_second_cut_is_refused(text, bits):
    # f_2 = c f_1 with c > 0: at equal first and second phases the whole
    # first locus lies on the second cut, so T_1 and T_2 meet in a curve,
    # not in points.  Along the path Im(e^{i eps_2} f_2) is 0 to rounding,
    # and the schedule is refused as non-generic; at other phases the
    # locus crosses nothing and the schedule stays admissible
    from chowreg.regulator import reg_n3

    Z = _n3_cycle(text)
    equal = PhaseSchedule(1, (0.1, 0.1, 0.01))
    with workprec(bits):
        rep = admissible(Z, equal, precision_bits=bits)
        assert [f.kind for f in rep.failures] == ["tangency"]
        assert "runs along the second cut" in rep.failures[0].detail
        other = admissible(Z, PhaseSchedule(1, (0.1, 0.2, 0.01)),
                           precision_bits=bits)
        assert other.ok and other.crossings == {0: []}
        with pytest.raises(ScheduleError):
            reg_n3(Z, equal, precision_bits=bits)


@pytest.mark.xfail(strict=True, reason=(
    "a traced first locus brackets crossings by sign changes between trace "
    "samples and sees none on a locus that runs along the cut; ROADMAP's "
    "one crossing finder for every degree is to refuse it"))
def test_a_traced_first_locus_along_the_second_cut_is_refused():
    Z = _n3_cycle("t^2 ; 2*t^2 ; (t-2)/(t+3)")
    with workprec(128):
        rep = admissible(Z, PhaseSchedule(1, (0.1, 0.1, 0.01)),
                         precision_bits=128)
    assert [f.kind for f in rep.failures] == ["tangency"]


def _reference_in_sector(value, rot):
    """The sector test at the working precision: -rot value has
    |Im| <= tan(CUT_MARGIN) Re."""
    import chowreg.wavefront as wf

    w = -mp.mpc(value) * rot
    return abs(w.imag) <= math.tan(wf.CUT_MARGIN) * w.real


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_near_cut_in_doubles_agrees_with_the_sector_test(bits, monkeypatch):
    # _near_cut decides on doubles unless the slack lies within 2^-44 |w|
    # of zero: at every phase, size and side of the ray its verdict is the
    # working-precision sector test's, and only the angles within 2^-20 of
    # the margin, relatively, fall back to it
    import chowreg.wavefront as wf

    fallback = []
    in_sector = wf._in_sector

    def counting(*args):
        fallback.append(args)
        return in_sector(*args)

    monkeypatch.setattr(wf, "_in_sector", counting)
    factors = [0, mp.mpf(1) / 2, 1, 2, 10 ** 6] + [
        1 + side * mp.mpf(2) ** -k for k in (10, 20, 50) for side in (1, -1)]
    near_margin = {1} | {1 + side * mp.mpf(2) ** -k
                         for k in (20, 50) for side in (1, -1)}
    verdicts = set()
    with workprec(bits):
        for phase in (0, mp.mpf("0.3"), 2, mp.pi / 2, 3, mp.mpf("1e-683")):
            rot = _rotation(phase, bits)[0]
            for factor in factors:
                angle = wf.CUT_MARGIN * factor
                for side in (1, -1):
                    for size in (mp.mpf("1e-300"), 1, mp.mpf("1e300")):
                        v = -size * mp.expj(side * angle) / rot
                        del fallback[:]
                        verdict = wf._near_cut(v, rot, double_image(v),
                                               double_image(rot))
                        assert verdict == _reference_in_sector(v, rot)
                        assert bool(fallback) == (factor in near_margin)
                        verdicts.add((factor, verdict))
    assert {f for f, near in verdicts if near} >= {0, mp.mpf(1) / 2}
    assert {f for f, near in verdicts if not near} >= {2, 10 ** 6}


def _count_polyval_per_crossing(monkeypatch):
    """A list that gains, per Moebius crossing refinement, the number of
    ``mp.polyval`` calls it made."""
    import chowreg.wavefront as wf

    counts, inside = [], []
    polyval, refine = mp.polyval, wf._refine_crossing

    def counting_polyval(*args, **kwargs):
        if inside:
            counts[-1] += 1
        return polyval(*args, **kwargs)

    def counting_refine(path, f_j_ev, rot_j, bracket, hi_positive, pq,
                        precision_bits):
        if pq is not None:
            counts.append(0)
            inside.append(True)
        try:
            return refine(path, f_j_ev, rot_j, bracket, hi_positive, pq,
                          precision_bits)
        finally:
            del inside[:]

    monkeypatch.setattr(mp, "polyval", counting_polyval)
    monkeypatch.setattr(wf, "_refine_crossing", counting_refine)
    return counts


def _mccarthy_schedules(bits):
    """Ten nested schedules and six equal phases of McCarthy's cycle."""
    lams = ("0.25", "0.35", "0.5", "0.65", "0.8")
    return ([make_schedule(mp.mpf(b), 3, mp.mpf(lam), bits)
             for b in ("0.3", "0.1") for lam in lams]
            + [PhaseSchedule(1, (mp.mpf(e),) * 3)
               for e in ("0.05", "0.1", "0.15", "0.2", "0.3", "0.4")])


@pytest.mark.parametrize("bits, most", [(53, 3), (128, 4), (256, 5)])
def test_a_moebius_crossing_takes_few_working_precision_steps(
        mccarthy, monkeypatch, bits, most):
    # Newton on P(e^sigma) starts from the root in doubles, so the working
    # precision only finishes it: one Q test and 2, 3 and 4 evaluations of
    # P at 53, 128 and 256 bits, where the middle of the bracket took 7.6,
    # 8.75 and 9.7 polyval calls on average
    counts = _count_polyval_per_crossing(monkeypatch)
    with workprec(bits):
        for s in _mccarthy_schedules(bits):
            admissible(mccarthy, s, precision_bits=bits)
    assert len(counts) == 16
    assert max(counts) <= most


def _midpoint_start_crossings(comp, s, bits):
    """(sign, t) of each crossing of the first locus of ``comp`` with the
    second cut: the chart polynomial's brackets, then bracketed Newton on
    P(e^sigma) in working precision from the middle of the bracket, the Q
    sign test and one path solve, as before the double seed."""
    import chowreg.wavefront as wf

    (path,) = trace_wavefront(comp, 1, s.phases[0], bits)
    f2_ev = comp.coords[1].evaluator(bits)
    rot = _rotation(s.phases[1], bits)[0]
    (p, q), brackets = wf._moebius_brackets(
        path, wf._chart(comp, 1, 2).evaluator(bits), rot, bits)
    small = mp.mpf(2) ** (-bits // 2)
    out = []
    for (s_hi, s_lo), hi_positive in brackets:
        sigma, converged = (s_hi + s_lo) / 2, False
        for _ in range(bits):
            r = mp.exp(sigma)
            g, slope = mp.polyval(p[::-1], r, derivative=True)
            slope *= r
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
        if mp.polyval(q[::-1], r) >= 0:
            continue
        t, n, d = path.solve_at(sigma)
        quotient = f2_ev.dlog(t) / path.evaluator.dlog(t, n, d)
        out.append((-1 if quotient.imag > 0 else 1, t))
    return out


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_a_seeded_crossing_stays_within_its_radius(mccarthy, bits):
    # the double seed moves where Newton starts, not which root it finds:
    # every crossing of McCarthy's cycle and of HIDDEN_CROSSING keeps its
    # count and sign, and its t lies within its radius of the crossing the
    # midpoint start finds
    (hidden,) = parse_cycle_file(HIDDEN_CROSSING)
    found = 0
    with workprec(bits):
        cases = [(mccarthy, s) for s in _mccarthy_schedules(bits)]
        cases += [(hidden, make_schedule(mp.mpf(b), 2, mp.mpf(lam), bits))
                  for b in ("0.3", "0.1") for lam in ("0.25", "0.5", "0.8")]
        cases.append((hidden, PhaseSchedule(
            1, (mp.mpf("0.15"), mp.mpf("6.4e-4")))))
        for Z, s in cases:
            comp = Z.components[0]
            paths = trace_wavefront(comp, 1, s.phases[0], bits)
            got = find_pair_intersections(comp, paths, 2, s.phases[1], bits)
            ref = _midpoint_start_crossings(comp, s, bits)
            assert [c.sign for c in got] == [sign for sign, _ in ref]
            for c, (_, t) in zip(got, ref):
                assert abs(c.t.value - t) <= c.t.radius
            found += len(got)
    assert found >= 16 + 2


def test_a_warm_component_builds_no_entry_image(monkeypatch):
    # the double images of a component's off-cut values are built with
    # them, once per precision; a later admissible call builds only those
    # of the values at its crossings, and the image of its one rotation
    # when no earlier check made it: once for three equal phases, and not
    # again for a phase already read
    import chowreg.wavefront as wf

    _rotation.table.cache_clear()
    images = []
    double_image = wf.double_image

    def counting(z):
        images.append(z)
        return double_image(z)

    monkeypatch.setattr(wf, "double_image", counting)
    Z = load_fixture("mccarthy_counterexample")
    comp = Z.components[0]
    counts = []
    with workprec(128):
        for e in ("0.2", "0.3", "0.2"):
            del images[:]
            rep = admissible(Z, PhaseSchedule(1, (mp.mpf(e),) * 3),
                             precision_bits=128)
            assert not rep.ok
            counts.append(len(images) - len(rep.crossings[0]))
        assert counts == [len(_off_cut_entries(comp, 128)) + 1, 1, 0]
        entries = _off_cut_entries(comp, 128)
        assert [e[5] for e in entries] == [double_image(e[2])
                                          for e in entries]


def test_a_failure_prints_its_witness_at_the_precision_of_the_check():
    # the witness of McCarthy's triple point at equal phases 0.2 is printed
    # from its 128-bit midpoint, not rounded again at the caller's 53 bits
    # (which read ...250365 in place of ...249488)
    Z = load_fixture("mccarthy_counterexample")
    with workprec(128):
        rep = admissible(Z, PhaseSchedule(1, (0.2, 0.2, 0.2)),
                         precision_bits=128)
        inside = [f.to_dict() for f in rep.failures]
    assert [f.to_dict() for f in rep.failures] == inside
    (triple,) = [f for f in inside if f["kind"] == "triple"]
    assert triple["witness"]["re"] == "0.20271003550867249488"


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_the_coefficient_test_on_doubles_keeps_every_report(bits,
                                                            monkeypatch):
    # a Moebius path whose chart polynomial Q has no negative coefficient
    # on double images is ruled out before _moebius_brackets; with a band
    # of oo every path goes there, and every report and crossing is the
    # same, on paths with and without crossings and at equal phases
    import chowreg.wavefront as wf

    off_the_cut = wf._off_the_cut
    cycles = [load_fixture(name) for name in (
        "z1_totaro", "petras_zeta5", "mccarthy_counterexample", "z_minus1",
        "graph_4_2")] + list(parse_cycle_file(HIDDEN_CROSSING))

    def reports():
        out, ruled = [], []

        def counting(*args):
            ruled.append(off_the_cut(*args))
            return ruled[-1]

        monkeypatch.setattr(wf, "_off_the_cut", counting)
        with workprec(bits):
            for Z in cycles:
                schedules = [make_schedule(mp.mpf(b), Z.n, mp.mpf(lam), bits)
                             for b in ("0.3", "0.1")
                             for lam in ("0.25", "0.5", "0.8")]
                schedules += [PhaseSchedule(1, (mp.mpf(e),) * Z.n)
                              for e in ("0.05", "0.2", "0.4")]
                for s in schedules:
                    rep = admissible(Z, s, precision_bits=bits)
                    out.append((rep.to_dict(), {
                        ci: [(c.sign, c.t.value, c.t.radius, c.sigma)
                             for c in cs]
                        for ci, cs in rep.crossings.items()}))
        return out, ruled

    plain, ruled = reports()
    monkeypatch.setattr(wf, "_BAND", math.inf)
    forced, forced_ruled = reports()
    assert any(ruled) and not any(forced_ruled)
    assert any(xs for _, crossings in plain for xs in crossings.values())
    assert forced == plain
