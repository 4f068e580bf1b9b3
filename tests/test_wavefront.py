import random

import mpmath as mp
import pytest

from chowreg import (
    ChowregError,
    ConvergenceError,
    CurveComponent,
    PhaseSchedule,
    Precycle,
    RationalFunction,
    ScheduleError,
    TracedPath,
    admissible,
    find_pair_intersections,
    make_schedule,
    search_schedule,
    trace_wavefront,
    workprec,
)
from chowreg.funcfield import RFEvaluator


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


def test_schedule_validation_rejects_bad():
    assert not PhaseSchedule(0.5, (0.25, 0.25, 0.25)).is_b_nested()
    assert not PhaseSchedule(0.5, (0.6,)).is_b_nested()


def test_trace_identity_function_is_ray():
    t = t_var()
    comp = CurveComponent(2, (t, (t - 1) / (t + 3)), 1)
    with workprec(128):
        paths = trace_wavefront(comp, 1, mp.mpf("0.05"), grid=300,
                                precision_bits=128)
        assert len(paths) == 1
        p = paths[0]
        # every sample on the ray arg t = pi - eps
        target = mp.pi - mp.mpf("0.05")
        for tt in p.points[::40]:
            assert abs(mp.arg(tt) - target) < 1e-30
        # radii strictly decreasing along the pole -> zero order
        radii = [mp.e ** s for s in p.sigmas]
        assert all(radii[k] > radii[k + 1] for k in range(len(radii) - 1))
        assert max(p.arg_residuals) < 1e-25


def test_trace_unperturbed_segment(z1):
    with workprec(128):
        paths = trace_wavefront(z1.components[0], 1, mp.mpf(0), grid=300,
                                precision_bits=128)
        assert len(paths) == 1
        p = paths[0]
        # pole of 1 - 1/t at t = 0, zero at t = 1; path runs (0, 1)
        assert abs(p.points[0]) < 1e-10
        assert abs(p.points[-1] - 1) < 1e-10
        for tt in p.points[::40]:
            assert -1e-25 < tt.real < 1 + 1e-25
            assert abs(tt.imag) < 1e-20


def test_trace_square_has_two_branches():
    t = t_var()
    comp = CurveComponent(2, (t * t, RationalFunction.from_rational(5, 1)), 1)
    with workprec(128):
        eps = mp.mpf("0.1")
        paths = trace_wavefront(comp, 1, eps, grid=300, precision_bits=128)
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
            paths = trace_wavefront(comp, 1, phase, grid=300, precision_bits=128)
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
                assert max(path.arg_residuals) < bound
                for sigma, t in zip(path.sigmas, path.points):
                    v = path.evaluator.value(t)
                    assert abs(mp.log(abs(v)) - sigma) < bound


@pytest.mark.parametrize("bits", [128, 256])
def test_moebius_trace_needs_no_root_solve(z1, petras, mccarthy, monkeypatch,
                                           bits):
    # every shipped first coordinate is Moebius: the seed is the closed form
    # like every later sample, so the trace makes no polyroots call
    calls = _counting_polyroots(monkeypatch)
    bound = 2.0 ** (-bits // 3)
    with workprec(bits):
        for Z in (z1, petras, mccarthy):
            for comp in Z.components:
                (path,) = trace_wavefront(comp, 1, mp.mpf("0.1"),
                                          precision_bits=bits)
                assert path.evaluator.linear is not None
                assert max(path.arg_residuals) < bound
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
    """Kernel calls of one point_at between two trace samples away from any
    pole; next to one, the floor rule would end the solve with two extra
    Horner passes."""
    phase = mp.mpf("0.1")
    with workprec(128):
        path = trace_wavefront(comp, 1, phase, grid=300, precision_bits=128)[0]
        counts = _count_kernel_calls(monkeypatch)
        sigma = (path.sigmas[150] + path.sigmas[151]) / 2
        t = path.point_at(sigma)
        calls = dict(counts)
        target = mp.e ** sigma * mp.e ** (1j * (mp.pi - phase))
        assert abs(path.evaluator.value(t) - target) < 1e-30 * abs(target)
    return calls


def test_point_at_runs_the_fused_newton_kernel(z1, monkeypatch):
    # on the Moebius 1 - 1/t point_at is the closed form of the solve: no
    # residual, Newton step or Horner pass, and no nearest-sample lookup
    monkeypatch.setattr(TracedPath, "_nearest_index", None)
    counts = _point_at_kernel_calls(z1.components[0], monkeypatch)
    assert counts == {"residual": 0, "newton_step": 0, "_horner": 0}


def test_point_at_reports_a_critical_point_as_convergence_error(monkeypatch):
    # a ZeroDivisionError from the solve (a critical point on the level
    # set) leaves point_at as a ConvergenceError naming the log-radius
    t = t_var()
    comp = CurveComponent(2, ((t * t - 2) / (t + 5),
                              RationalFunction.from_rational(7, 1)), 1)
    with workprec(128):
        path = trace_wavefront(comp, 1, mp.mpf("0.1"), grid=300,
                               precision_bits=128)[0]

        def critical(self, *args):
            raise ZeroDivisionError("critical point in Newton step")

        monkeypatch.setattr(RFEvaluator, "newton_step", critical)
        sigma = (path.sigmas[150] + path.sigmas[151]) / 2
        with pytest.raises(ConvergenceError,
                           match=f"log-radius {float(sigma):.4f}"):
            path.point_at(sigma)


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
    with workprec(128):
        path = trace_wavefront(z1.components[0], 1, mp.mpf("0.1"),
                               precision_bits=128)[0]
        for sigma in (path.sigma_hi + 1, path.sigma_lo - 1):
            with pytest.raises(ChowregError, match="outside the traced range"):
                path.point_at(sigma)
        path.point_at(path.sigma_lo)


@pytest.mark.parametrize("bits", [128, 256])
def test_trace_near_finite_pole_needs_one_root_solve(graph_4_2, monkeypatch,
                                                     bits):
    # next to the pole t = 2 of (t - 4)/(t - 2) the relative residual of the
    # closed form cannot reach its tolerance; Newton from the closed-form
    # point stops at the rounding floor instead of handing every step to a
    # polyroots re-solve, and the Moebius seed needs none either
    calls = _counting_polyroots(monkeypatch)
    with workprec(bits):
        (path,) = trace_wavefront(graph_4_2.components[0], 2, mp.mpf("0.1"),
                                  precision_bits=bits)
        assert len(calls) == 0
        bound = 2.0 ** (-bits // 3)
        assert max(path.arg_residuals) < bound
        for sigma, t in zip(path.sigmas, path.points):
            assert abs(mp.log(abs(path.evaluator.value(t))) - sigma) < bound


def test_pair_intersections_z1_empty(z1):
    with workprec(128):
        s = make_schedule(0.3, 3, 0.5)
        paths = trace_wavefront(z1.components[0], 1, s.phases[0],
                                precision_bits=128)
        hits = find_pair_intersections(z1.components[0], paths, 2, s.phases[1],
                                       precision_bits=128)
        assert hits == []


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


def test_search_schedule_petras(petras):
    with workprec(128):
        s = search_schedule(petras, 0.3, precision_bits=128)
        assert admissible(petras, s, precision_bits=128).ok


def test_schedule_phase_count_must_match(z1):
    with workprec(128):
        with pytest.raises(ChowregError):
            admissible(z1, PhaseSchedule(1, (0.1, 0.01)), precision_bits=128)
