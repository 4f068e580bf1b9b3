import cmath
import functools
import importlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import (
    ChowregError,
    CurveComponent,
    CyclotomicNumber,
    PhaseSchedule,
    PointComponent,
    PrecisionError,
    Precycle,
    RationalFunction,
    ScheduleError,
    admissible,
    boundary,
    intersection_number_n2,
    li2,
    load_fixture,
    make_schedule,
    parse_cycle_file,
    phase_independence_check,
    reg_n1,
    reg_n3,
    regulator,
    search_admissible,
    torsion_order,
    workprec,
)
from chowreg.regulator import (
    RegulatorValue,
    _canonical_mod_lattice,
    _constants,
    _generator,
    lattice_difference,
)
from chowreg.wavefront import _built_schedule, _rotation
from chowreg.field import embed
from chowreg.fixtures import dilog_cycle, dilog_pair
from chowreg.funcfield import INF, RFEvaluator
from chowreg.numeric import ComplexApprox


def point_cycle(values, order=1):
    comps = [PointComponent(1, (CyclotomicNumber.from_rational(Fraction(v), order)
                                if not isinstance(v, CyclotomicNumber) else v,), m)
             for v, m in values]
    return Precycle(1, 1, comps, order=order)


def test_reg_n1_log2():
    with workprec(128):
        v = reg_n1(point_cycle([(2, 1)]), mp.mpf("0.1"), 128)
        assert abs(v.value.value - mp.log(2)) < 1e-30


def test_reg_n1_weil_boundary_is_zero(graph_4_2):
    with workprec(128):
        b = boundary(graph_4_2)
        v = reg_n1(b, mp.mpf("0.05"), 128)
        assert abs(v.value.value) < 1e-30
        assert v.lattice_multiple == 0


def test_reg_n1_minus_one_branch():
    with workprec(128):
        v = reg_n1(point_cycle([(-1, 1)]), mp.mpf("0.1"), 128)
        assert abs(v.value.value + mp.mpc(0, mp.pi)) < 1e-30


def test_reg_n1_rejects_zero_coordinate():
    with workprec(128):
        with pytest.raises(ChowregError):
            reg_n1(point_cycle([(0, 1)]), mp.mpf("0.1"), 128)


def test_boundary_values_lie_in_lattice_and_match_count(graph_1_m3):
    # the closure product forces sum(m log a) into 2*pi*i Z; the signed
    # crossing count gives the same integer under this sign convention
    with workprec(128):
        b = boundary(graph_1_m3)
        v = reg_n1(b, mp.mpf("0.01"), 128)
        assert abs(v.value.value) < 1e-25  # canonical representative
        k = v.lattice_multiple
        assert abs(k) == 1
        s = PhaseSchedule(1, (mp.mpf("0.05"), mp.mpf("0.01")))
        count = intersection_number_n2(graph_1_m3, s, precision_bits=128)
        assert abs(count) == 1
        # informational: the chain-level identity holds with matching sign
        assert count == k


def test_intersection_number_traces_once(graph_1_m3, monkeypatch):
    # the count is read from the admissibility report, which traces only
    # the first coordinate
    import chowreg.wavefront as wf

    calls = []
    original = wf.trace_wavefront

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(wf, "trace_wavefront", counting)
    with workprec(128):
        s = PhaseSchedule(1, (mp.mpf("0.05"), mp.mpf("0.01")))
        assert abs(intersection_number_n2(graph_1_m3, s, precision_bits=128)) == 1
    assert calls == [1]


def test_reg_n3_reads_the_accepted_report(z_square):
    with workprec(192):
        rep = search_admissible(z_square, 0.3, precision_bits=192)
        from_report = reg_n3(z_square, rep, precision_bits=192)
        from_schedule = reg_n3(z_square, rep.schedule, precision_bits=192)
    assert from_report.schedule_used is rep.schedule
    assert from_report.value.value == from_schedule.value.value
    assert from_report.value.radius == from_schedule.value.radius
    assert from_report.lattice_multiple == from_schedule.lattice_multiple
    for a, b in zip(from_report.breakdown, from_schedule.breakdown, strict=True):
        for key in ("line_integral", "crossing_sum"):
            assert a[key].value == b[key].value
            assert a[key].radius == b[key].radius
        assert [(c["t"].value, c["sign"]) for c in a["crossings"]] == \
            [(c["t"].value, c["sign"]) for c in b["crossings"]]


def test_reg_n3_refuses_inadmissible_schedule_and_report(mccarthy):
    e = mp.mpf("0.2")
    s = PhaseSchedule(1, (e, e, e))
    with workprec(128):
        rep = admissible(mccarthy, s, precision_bits=128)
        assert not rep.ok
        for arg in (s, rep):
            with pytest.raises(ScheduleError, match="triple"):
                reg_n3(mccarthy, arg, precision_bits=128)


def test_intersection_number_examples(graph_4_2):
    t = RationalFunction.t(1)
    with workprec(128):
        s = PhaseSchedule(1, (mp.mpf("0.05"), mp.mpf("0.01")))
        assert intersection_number_n2(graph_4_2, s, precision_bits=128) == 0
        const_cycle = Precycle(2, 1, [CurveComponent(
            2, (t, RationalFunction.from_rational(7, 1)), 1)], order=1)
        assert intersection_number_n2(const_cycle, s, precision_bits=128) == 0
        empty = Precycle(2, 1, [], order=1)
        assert intersection_number_n2(empty, s, precision_bits=128) == 0


@pytest.mark.parametrize("bits", [53, 64, 80, 96, 128])
def test_totaro_accuracy_at_low_precision(z1, bits):
    # the Moebius first locus is integrated from the pole of f_1 to its
    # zero, so the error is rounding alone, down to 53 bits
    with workprec(bits):
        v = regulator(z1, precision_bits=bits)
        tr = torsion_order(v, 200, 1e-6)
    with workprec(bits + 64):
        value = mp.mpc(v.value.value)
        err = abs(value - mp.pi ** 2 / 6)
        assert err <= v.value.radius
        assert err <= mp.mpf(2) ** (8 - bits) * max(1, abs(value))
    assert tr.order == 24


def test_petras_at_53_bits_holds_its_oracle(petras):
    with workprec(53):
        v = regulator(petras, precision_bits=53)
        tr = torsion_order(v, 200, 1e-6)
    with workprec(53 + 64):
        assert abs(mp.mpc(v.value.value) - 7 * mp.pi ** 2 / 30) \
            <= v.value.radius
    assert tr.order == 120


def test_reg_n3_z1(z1):
    with workprec(256):
        s = make_schedule(0.3, 3, 0.5)
        v = reg_n3(z1, s, precision_bits=256)
        assert abs(v.value.value - mp.pi ** 2 / 6) < 1e-10
        assert v.value.radius < 1e-12


def test_reg_n3_takes_one_newton_step_per_node(z1, monkeypatch):
    # coordinate 1 of the Totaro curve is Moebius: its cut locus is the
    # closed form in the radius, with no crossing to refine, and so is its
    # line integral, one quadrature call on its one path, so the whole of
    # reg_n3 solves no point and takes no Newton step
    regulator_module = importlib.import_module("chowreg.regulator")
    counts = {"quadratures": 0, "steps": 0, "solves": 0}
    quad = regulator_module.quadrature
    newton_step = RFEvaluator.newton_step
    solve = RFEvaluator.solve

    def counting_quadrature(*args, **kwargs):
        counts["quadratures"] += 1
        return quad(*args, **kwargs)

    def counting_step(self, *args):
        counts["steps"] += 1
        return newton_step(self, *args)

    def counting_solve(self, *args):
        counts["solves"] += 1
        return solve(self, *args)

    monkeypatch.setattr(regulator_module, "quadrature", counting_quadrature)
    monkeypatch.setattr(RFEvaluator, "newton_step", counting_step)
    monkeypatch.setattr(RFEvaluator, "solve", counting_solve)
    with workprec(128):
        v = reg_n3(z1, make_schedule(0.3, 3, 0.5), precision_bits=128)
        assert abs(v.value.value - mp.pi ** 2 / 6) <= v.value.radius
    assert counts["solves"] == 0
    assert counts["quadratures"] == 1
    assert counts["steps"] == 0


_MOEBIUS_CYCLES = {
    "totaro": lambda: load_fixture("z1_totaro"),
    # components 2 and 3 have f_3 = 1/t^5
    "petras": lambda: load_fixture("petras_zeta5"),
    # one crossing at the accepted schedule, deg f_2 = 2
    "mccarthy": lambda: load_fixture("mccarthy_counterexample"),
    "dilog_7_3": lambda: dilog_cycle(7, 3),
}


def _recording_moebius_lines(monkeypatch):
    """Record, for every Moebius path reg_n3 integrates, (component, path,
    crossings, second phase, the chord balls of each stretch, inverted
    flags of its dilogarithm pairs)."""
    regulator_module = importlib.import_module("chowreg.regulator")
    quadrature = regulator_module.quadrature
    dilog_pairs = regulator_module._dilog_pairs
    seen, inverted = [], []

    def recording_pairs(*args):
        pairs = dilog_pairs(*args)
        inverted.append([p[3] for p in pairs])
        return pairs

    def recording(comp, path, xs, eps2, precision_bits):
        chords = quadrature(comp, path, xs, eps2, precision_bits)
        stretches = [[] for _ in range(len(xs) + 1)]
        for seg, _, _, ball in chords:
            stretches[seg].append(ball)
        seen.append((comp, path, xs, eps2, stretches, inverted[-1]))
        return chords

    monkeypatch.setattr(regulator_module, "_dilog_pairs", recording_pairs)
    monkeypatch.setattr(regulator_module, "quadrature", recording)
    return seen


def _t_space_stretch(comp, phases, a, b, bits):
    """-int_a^b log^{eps_2} f_2 dlog f_3 / dlog f_1 du along the first cut
    locus, u = -log r from a to b, either of which may be None for the path
    end u = -oo or u = oo, by mpmath's quadrature of the t-space integrand
    in x = tanh(u/2) to 2^-(bits + 32): each node takes
    t = f_1^-1(e^{-u} e^{i(pi - eps_1)}) and evaluates the coordinates at t
    at ``bits``."""
    f1, f2, f3 = (RFEvaluator(f, bits) for f in comp.coords)
    inverse = RFEvaluator(comp.coords[0].inverse(), bits)
    eps1, eps2 = phases[:2]
    with workprec(bits):
        direction = mp.expj(mp.pi - eps1)
        x_a = mp.mpf(-1) if a is None else mp.tanh(a / 2)
        x_b = mp.mpf(1) if b is None else mp.tanh(b / 2)

    def integrand(x):
        with workprec(bits):
            u = 2 * mp.atanh(x)
            t = inverse.value(mp.exp(-u) * direction)
            n, d = (RFEvaluator._horner(cs, t) for cs in (f1.nc, f1.dc))
            lg2 = mp.log(f2.value(t))
            if lg2.imag > mp.pi - eps2:
                lg2 -= 2 * mp.pi * mp.mpc(0, 1)
            return (-lg2 * f3.dlog(t) / f1.dlog(t, n, d)
                    * 2 / ((1 - x) * (1 + x)))

    with workprec(bits + 32):
        return mp.quad(integrand, [x_a, x_b])


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(_MOEBIUS_CYCLES))
def test_radius_integrand_agrees_with_the_t_space_integrand(name, bits,
                                                            monkeypatch):
    # each stretch of a Moebius path, the sum of its chords in closed form
    # in the radius, agrees with mpmath's quadrature of the t-space
    # integrand at twice the precision: within the summed radii, and to
    # 2^(16 - bits) relative.  The outer stretches run to the path ends,
    # the pole and the zero of f_1.  McCarthy's path has two stretches, one
    # on either side of its crossing, and inverted (w = 1/z) pairs
    Z = _MOEBIUS_CYCLES[name]()
    seen = _recording_moebius_lines(monkeypatch)
    with workprec(bits):
        rep = search_admissible(Z, 0.3, precision_bits=bits)
        reg_n3(Z, rep, precision_bits=bits)
    assert len(seen) == len(Z.components)
    if name == "mccarthy":
        assert [len(pieces) for *_, pieces, _ in seen] == [2]
        assert any(seen[0][-1]) and not all(seen[0][-1])
    for comp, path, xs, eps2, pieces, _ in seen:
        assert not path.points
        assert eps2 == rep.schedule.phases[1]
        assert len(pieces) == len(xs) + 1 and all(pieces)
        with workprec(bits):
            bounds = [None, *(-c.sigma for c in xs), None]
        for balls, a, b in zip(pieces, bounds, bounds[1:]):
            ref = _t_space_stretch(comp, rep.schedule.phases, a, b, 2 * bits)
            with workprec(2 * bits):
                err = abs(mp.fsum(mp.mpc(ball.value) for ball in balls) - ref)
                assert err <= sum(ball.radius for ball in balls)
                assert err <= mp.mpf(2) ** (16 - bits) * max(1, abs(ref))


def _off_the_positive_axis(rng, count):
    out = []
    while len(out) < count:
        z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if not (z.real > 0 and abs(z.imag) < 0.2):
            out.append(z)
    return out


# (rho, delta = s - rho) of the first pair of a trial, each not inverted:
# delta real and positive with Im rho < 0 or > 0, real and negative, and
# Im delta = +-1e-40 |delta| on the side where the pair is not inverted
_PAIRS_AT_OO = {
    0: (mp.mpc(2, -1), mp.mpc(1)),
    6: (mp.mpc(-1, 2), mp.mpc(-2)),
    7: (mp.mpc(-1, 1), mp.mpc(3)),
    8: (mp.mpc(-1, 1), mp.mpc(1, 1e-40)),
    9: (mp.mpc(2, -1), mp.mpc(1, -1e-40)),
}


@pytest.mark.parametrize("trial", range(12))
def test_antiderivative_at_oo_is_the_limit_of_the_closed_form(trial):
    # random zeros and poles s of f_2 (sum n = 0) and rho of f_3 in the
    # radius: [H + K G](2^e) tends to the limit at r = oo like e 2^-e, with
    # K = 0 when f_3 has a zero or pole at oo (sum m != 0), where f_2 = 1,
    # and any K else.  Trial 0 holds a pair that is not inverted, with
    # delta = s - rho real and positive and Im rho < 0, where log(-z) tends
    # to the negative real axis from below; trial 7 one with Im rho > 0,
    # where it tends to it from above, and trial 6 one with delta real and
    # negative.  Trials 8 and 9 put Im delta 1e-40 |delta| above and below
    # the real axis.  Trials 10 and 11 shift every D by +-2 pi i, a log of
    # rho - s on another branch, which the limit may not see
    regulator_module = importlib.import_module("chowreg.regulator")
    rng = random.Random(trial)
    with workprec(200):
        ms = [1, -2, 1] if trial % 2 else [2, 1, -1]
        zeros2 = list(zip([1, 2, -3], _off_the_positive_axis(rng, 3)))
        zeros3 = list(zip(ms, _off_the_positive_axis(rng, 3)))
        if trial in _PAIRS_AT_OO:
            rho, delta = _PAIRS_AT_OO[trial]
            zeros2[0], zeros3[0] = (1, rho + delta), (ms[0], rho)
        pairs = regulator_module._dilog_pairs(zeros2, zeros3)
        if trial in _PAIRS_AT_OO:
            assert pairs[0][2] == delta and not pairs[0][3]
        if trial >= 10:
            shift = mp.mpc(0, 2 * mp.pi) * (1 if trial == 10 else -1)
            pairs = [(*p[:4], p[4] + shift) for p in pairs]
        k = (mp.mpc(rng.uniform(-1, 1), rng.uniform(-3, 3)) if sum(ms) == 0
             else mp.mpc(0))
        h, g, radius, _ = regulator_module._antiderivative_at_oo(
            zeros3, pairs, k, 200)
        assert g == 0 and radius == 0
        for e in (80, 160):
            h_e, g_e, _, _ = regulator_module._antiderivative(
                mp.mpf(2) ** e, zeros3, pairs)
            assert abs(h_e + k * g_e - h) < e * mp.mpf(2) ** (8 - e)


def test_antiderivative_at_oo_refuses_a_diverging_end():
    # f_2 and f_3 both with a zero or pole at r = oo (a log^2 r term), or
    # f_3 with one where f_2 != 1 (a log r term): the integral diverges
    regulator_module = importlib.import_module("chowreg.regulator")
    with workprec(128):
        s, rho = mp.mpc(-1, 2), mp.mpc(-2, -1)
        for zeros2, k in (([(1, s)], mp.mpc(0)), ([(1, s), (-1, -s)], 1)):
            zeros3 = [(1, rho)]
            pairs = regulator_module._dilog_pairs(zeros2, zeros3)
            with pytest.raises(ChowregError, match="diverges"):
                regulator_module._antiderivative_at_oo(zeros3, pairs,
                                                       mp.mpc(k), 128)


@pytest.mark.parametrize("band", ["doubles", "forced"])
def test_antiderivative_at_0_refuses_a_diverging_end(band, monkeypatch):
    # f_3 with a zero or pole at r = 0 where f_2 != 1 (a log r term), or
    # where f_2 has one too (s = rho = 0, a log^2 r term): the integral
    # diverges.  Where f_2 = 1 there, K + D = 0, the end is taken and its
    # guard is decided on the double image of log f_2, without the scale
    # of the working-precision test; with a band of oo that test takes it
    regulator_module = importlib.import_module("chowreg.regulator")
    diverges, scaled = regulator_module._diverges, []

    def counting(value, scale, bits):
        return diverges(value, lambda: scaled.append(1) or scale(), bits)

    monkeypatch.setattr(regulator_module, "_diverges", counting)
    if band == "forced":
        monkeypatch.setattr(regulator_module, "_BAND", math.inf)
    with workprec(128):
        s, rho = mp.mpc(-1, 2), mp.mpc(-2, -1)
        zeros3 = [(1, mp.mpc(0)), (-1, rho)]
        for zeros2 in ([(1, s)], [(1, mp.mpc(0)), (-1, s)]):
            pairs = regulator_module._dilog_pairs(zeros2, zeros3)
            with pytest.raises(ChowregError, match="diverges"):
                regulator_module._antiderivative_at_0(
                    zeros3, pairs, mp.mpc(0, 1), 128, None, None)
        pairs = regulator_module._dilog_pairs([(1, s)], zeros3)
        scaled.clear()
        h, g, _, _ = regulator_module._antiderivative_at_0(
            zeros3, pairs, -pairs[0][4], 128, None, None)
        assert scaled == ([1] if band == "forced" else [])
        ref_h, ref_g, _, _ = regulator_module._antiderivative(
            mp.mpf(0), zeros3[1:], [(-1, 0, *pairs[1][2:])])
        assert (h, g) == (ref_h, ref_g)


# li2 calls over one regulator() call on a fresh cycle: one per pair of a
# zero or pole of f_2 and one of f_3 that differ, at the end r = 0
_MOEBIUS_DILOGS = {"totaro": 1, "petras": 3}


@pytest.mark.parametrize("name", ["totaro", "mccarthy", "petras"])
def test_moebius_quadrature_solves_and_evaluates_nothing_in_t(name,
                                                             monkeypatch):
    # a Moebius path runs no quadrature node: its line integral is the
    # closed form in the radius, which solves for no t, takes no Newton
    # step and evaluates f_2 at one point per stretch only, the point in
    # closed form that fixes the branch of log f_2 there.  Without
    # crossings (Totaro, Petras) that point is read in doubles, and f_2 is
    # evaluated nowhere; McCarthy's line crosses the second cut.  Without
    # crossings its logs and dilogarithms are chart terms no schedule
    # moves: a fresh Totaro or Petras computes each dilogarithm once over
    # the three schedules of regulator(), and a second call takes no log
    # and no dilogarithm at all
    regulator_module = importlib.import_module("chowreg.regulator")
    quadrature = regulator_module.quadrature
    inside, stretches = [], []
    calls = {"solve": 0, "value": 0, "dlog": 0, "newton_step": 0}

    def counting_quadrature(comp, path, *args):
        assert not path.points
        inside.append(True)
        try:
            chords = quadrature(comp, path, *args)
        finally:
            inside.pop()
        stretches.append(len({seg for seg, *_ in chords}))
        return chords

    def counting(method):
        original = getattr(RFEvaluator, method)

        def wrapper(self, *args, **kwargs):
            if inside:
                calls[method] += 1
            return original(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(regulator_module, "quadrature", counting_quadrature)
    for method in calls:
        monkeypatch.setattr(RFEvaluator, method, counting(method))
    Z = _MOEBIUS_CYCLES[name]()
    with workprec(128):
        v = reg_n3(Z, search_admissible(Z, 0.3, precision_bits=128),
                   precision_bits=128)
    assert all(e["line_integral"].value != 0 for e in v.breakdown)
    assert len(stretches) == len(Z.components)
    values = calls.pop("value")
    assert calls == {"solve": 0, "dlog": 0, "newton_step": 0}
    if name not in _MOEBIUS_DILOGS:
        assert 0 < values <= sum(stretches)
        return
    assert values == 0
    monkeypatch.undo()
    counts = {"li2": 0, "log": 0}

    def count(call, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return call(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(regulator_module, "li2",
                        count(regulator_module.li2, "li2"))
    monkeypatch.setattr(mp, "log", count(mp.log, "log"))
    Z = _MOEBIUS_CYCLES[name]()
    seen = []
    for _ in range(2):
        counts.update(li2=0, log=0)
        with workprec(128):
            regulator(Z, precision_bits=128)
        seen.append(dict(counts))
    assert seen[0]["li2"] == _MOEBIUS_DILOGS[name]
    assert seen[1] == {"li2": 0, "log": 0}


_TRACED_CYCLES = {
    "totaro_s2": lambda: _totaro_composed(1, "t^2"),
    "totaro_s2_plus_i": lambda: load_fixture("totaro_s2_plus_i"),
    "totaro_s3": lambda: _totaro_composed(3, "t^3"),
    "mccarthy_s2_plus_i": lambda: _mccarthy_composed("t^2+i"),
    "totaro_s2p1_s2p2": lambda: _totaro_composed(1, "(t^2+1)/(t^2+2)"),
}


@functools.lru_cache(maxsize=None)
def _accepted(name):
    """(cycle, the report search_admissible accepts at 128 bits) of a traced
    cycle, kept for the polygon tests, which only read it."""
    Z = _TRACED_CYCLES[name]()
    with workprec(128):
        return Z, search_admissible(Z, 0.3, precision_bits=128)


def _polygon_of(name, branch=0):
    """(component, report, path, its crossings, its polygon's chords) for
    one branch of a traced cycle at 128 bits."""
    regulator_module = importlib.import_module("chowreg.regulator")
    Z, rep = _accepted(name)
    path = rep.paths[0][branch]
    xs = sorted((c for c in rep.crossings[0] if c.host_path is path),
                key=lambda c: float(-c.sigma))
    with workprec(128):
        chords = regulator_module.quadrature(Z.components[0], path, xs,
                                             rep.schedule.phases[1], 128)
    return Z.components[0], rep, path, xs, chords


def _t_space_chord(comp, eps2, t_a, t_b, bits, exact, start_at_b):
    """int log^{eps_2} f_2 dlog f_3 along the straight chord from t_a to t_b
    (in u = 1/t when an end is t = oo), by mpmath's quadrature at ``bits``.

    The chord parameter lambda in [0, 1] is cut where a zero or pole of f_2
    or f_3 comes near, and each piece continues the branch of log f_2 from
    the previous one, starting on the eps_2 branch at the end
    ``start_at_b`` names.  An end in ``exact`` (a zero or pole of f_1) is
    approached to 2^(-bits/2), which leaves out far less than the radius."""
    inverted = INF in (t_a, t_b)
    coords = comp.coords[1:]
    if inverted:
        coords = [f.compose(1 / RationalFunction.t(f.order)) for f in coords]
    f2, f3 = (RFEvaluator(f, bits) for f in coords)
    with workprec(bits):
        two_pi_i = 2 * mp.pi * mp.mpc(0, 1)
        a, b = (mp.mpc(0) if t is INF else 1 / mp.mpc(t) if inverted
                else mp.mpc(t) for t in (t_a, t_b))
        eta = mp.mpf(2) ** (-bits // 2)
        cuts = {eta if exact[0] else mp.mpf(0), 1 - eta if exact[1] else 1}
        for f in coords:
            for pt in f.divisor(bits):
                if pt.location is INF:
                    continue
                loc = pt.location
                x = (loc.value if isinstance(loc, ComplexApprox)
                     else embed(loc, bits).value)
                s = (x - a) / (b - a)
                cuts |= {c for c in (s.real - abs(s.imag), s.real,
                                     s.real + abs(s.imag))
                         if min(cuts) < c < max(cuts)}
        cuts = sorted(cuts, reverse=start_at_b)

        def near(w, branch):
            lw = mp.log(w)
            return lw + two_pi_i * mp.nint((branch - lw).imag / (2 * mp.pi))

        branch = mp.log(f2.value(a + cuts[0] * (b - a)))
        if branch.imag > mp.pi - eps2:
            branch -= two_pi_i
        total = mp.mpc(0)
        for p, q in zip(cuts, cuts[1:]):
            total += mp.quad(lambda lam, _b=branch: near(
                f2.value(a + lam * (b - a)), _b)
                * f3.dlog(a + lam * (b - a)) * (b - a), [p, q])
            branch = near(f2.value(a + q * (b - a)), branch)
        return -total if start_at_b else total


def _check_chords_against_t_space(comp, rep, xs, chords):
    crossing_ts = [c.t.value for c in xs]
    for i, (_, a, b, ball) in enumerate(chords):
        ref = _t_space_chord(comp, rep.schedule.phases[1], a, b, 192,
                             (i == 0, i == len(chords) - 1),
                             i == 0 or a in crossing_ts)
        with workprec(192):
            err = abs(mp.mpc(ball.value) - ref)
            assert err <= ball.radius, (i, a, b)
            assert err <= mp.mpf(2) ** (16 - 128) * max(1, abs(ref))


@pytest.mark.parametrize("name", ["totaro_s2_plus_i", "mccarthy_s2_plus_i"])
def test_polygon_chords_agree_with_the_t_space_integrand(name):
    # each chord of a traced branch, integrated in closed form at 128 bits,
    # against mpmath's quadrature of the t-space integrand on that chord 64
    # bits higher.  g = s^2 + i is even, so t -> -t maps the curve onto
    # itself and the first branch onto the second.  On Totaro o (s^2 + i)
    # the chords meet exact ends where f_2 vanishes and f_3 has a pole; on
    # McCarthy o (s^2 + i) the branch starts at t = oo, has a crossing, and
    # ends where f_3 vanishes
    comp, rep, path, xs, chords = _polygon_of(name)
    assert len(chords) >= 16
    if name.startswith("mccarthy"):
        assert chords[0][1] is INF
        assert len(xs) == 1 and {seg for seg, *_ in chords} == {0, 1}
    _check_chords_against_t_space(comp, rep, xs, chords)


@pytest.mark.parametrize("name", ["mccarthy_s2_plus_i", "totaro_s2p1_s2p2"])
def test_polygon_end_at_infinity_is_a_ray(name):
    # the first locus of McCarthy o (s^2 + i) starts at the double pole
    # t = oo of f_1 = i s^2 - 2, and that of Totaro o ((s^2 + 1)/(s^2 + 2))
    # ends at the double zero t = oo of f_1 = -1/(s^2 + 1).  Each branch's
    # chord to t = oo runs along the ray t = lambda v from the trace sample
    # v next to it, where f_2 and f_3 are regular, and agrees with
    # mpmath's quadrature there 64 bits higher
    regulator_module = importlib.import_module("chowreg.regulator")
    last = name.startswith("totaro")
    i = -1 if last else 0
    for branch in (0, 1):
        comp, rep, path, xs, chords = _polygon_of(name, branch)
        end = regulator_module._branch_ends(comp.coords[0], path, 128)[last]
        assert end.location is INF and end.multiplicity == (2 if last else -2)
        _, a, b, ball = chords[i]
        v, oo = (a, b) if last else (b, a)
        assert oo is INF and v == path.points[i]
        assert abs(v) > mp.exp(27)
        ref = _t_space_chord(comp, rep.schedule.phases[1], a, b, 192,
                             (a is INF, b is INF), a is INF)
        with workprec(192):
            err = abs(mp.mpc(ball.value) - ref)
            assert err <= ball.radius
            assert err <= mp.mpf(2) ** (16 - 128) * max(1, abs(ref))


def test_chord_around_a_divisor_point_is_split(monkeypatch):
    # Totaro o g with g = s^2 / (s - c), c = 1/20 + i/400, a curve whose
    # second branch runs from the pole s = 0 of f_1 around the zero
    # r_1 = 0.0528 + 0.0028 i of f_2 (where the first branch ends) to
    # r_2 = 0.947 - 0.0028 i.  With one vertex at each end of the trace the
    # chord across the branch and the samples it skips enclose r_1, so the
    # chord is split; the value moves no more than the radii, and holds
    # deg g pi^2/6
    regulator_module = importlib.import_module("chowreg.regulator")
    in_or_near_loop = regulator_module._in_or_near_loop
    enclosed = []

    def recording(z, loop):
        near = in_or_near_loop(z, loop)
        winding = sum(cmath.phase((q - z) / (p - z))
                      for p, q in zip(loop, loop[1:] + loop[:1]))
        if near and abs(winding) > math.pi:
            enclosed.append(z)
        return near

    Z = _totaro_composed(4, "t^2/(t-(1/20+i/400))")
    with workprec(128):
        rep = search_admissible(Z, 0.3, precision_bits=128)
        default = reg_n3(Z, rep, precision_bits=128)
        monkeypatch.setattr(regulator_module, "_POLYGON_STRIDE", 10 ** 6)
        monkeypatch.setattr(regulator_module, "_in_or_near_loop", recording)
        wide = reg_n3(Z, rep, precision_bits=128)
    assert enclosed
    with workprec(192):
        assert abs(mp.mpc(wide.value.value) - mp.mpc(default.value.value)) \
            <= wide.value.radius + default.value.radius
        assert abs(mp.mpc(wide.value.value) - mp.pi ** 2 / 3) \
            <= wide.value.radius


@pytest.mark.parametrize("name", sorted(_TRACED_CYCLES))
def test_half_polygon_stride_moves_no_traced_value(name, monkeypatch):
    # a polygon through every 20th trace sample instead of every 40th is
    # homotopic to the first: the value moves by less than the radii
    regulator_module = importlib.import_module("chowreg.regulator")
    Z, rep = _accepted(name)
    with workprec(128):
        default = reg_n3(Z, rep, precision_bits=128)
        monkeypatch.setattr(regulator_module, "_POLYGON_STRIDE",
                            regulator_module._POLYGON_STRIDE // 2)
        half = reg_n3(Z, rep, precision_bits=128)
    with workprec(192):
        assert abs(mp.mpc(half.value.value) - mp.mpc(default.value.value)) \
            <= half.value.radius + default.value.radius


@pytest.mark.parametrize("name", ["totaro_s2", "totaro_s2_plus_i",
                                  "mccarthy_s2_plus_i"],
                         ids=["traced_s2", "traced_s2_plus_i",
                              "traced_mccarthy_s2_plus_i"])
def test_polygon_vertices_lie_on_the_path(name):
    # the polygon of each branch is joined up, runs from a pole of f_1 to a
    # zero, and every other vertex is a trace sample of the branch or a
    # crossing with the second cut, where the stretch changes
    regulator_module = importlib.import_module("chowreg.regulator")
    Z, rep = _accepted(name)
    for branch in range(len(rep.paths[0])):
        comp, _, path, xs, chords = _polygon_of(name, branch)
        pole, zero = regulator_module._branch_ends(comp.coords[0], path, 128)
        with workprec(144):
            assert chords[0][1] == regulator_module._location(pole)
            assert chords[-1][2] == regulator_module._location(zero)
        assert [seg for seg, *_ in chords] == sorted(seg for seg, *_ in chords)
        assert chords[-1][0] == len(xs)
        crossing_ts = [c.t.value for c in xs]
        for (seg, _, b, _), (next_seg, a, _, _) in zip(chords, chords[1:]):
            assert a == b
            assert b in path.points or (b in crossing_ts
                                        and next_seg == seg + 1)


def test_polygon_is_a_few_chords_per_stretch():
    # each traced branch of Totaro o s^2 (one stretch, no crossings) at 256
    # bits is one chord per 40 trace samples and one to each exact end,
    # with a few split where a zero of f_2 sits next to the last sample
    regulator_module = importlib.import_module("chowreg.regulator")
    Z = _totaro_composed(1, "t^2")
    with workprec(256):
        rep = admissible(Z, make_schedule(0.3, 3, 0.5), precision_bits=256)
        assert rep.crossings[0] == []
        assert len(rep.paths[0]) == 2
        for path in rep.paths[0]:
            chords = regulator_module.quadrature(Z.components[0], path, [],
                                                 rep.schedule.phases[1], 256)
            assert 16 <= len(chords) <= 24


def test_reg_n3_z_square_oracle(z_square):
    # line integral reduces to 2 * int_0^1 log(1-t^2) dt/t = -pi^2/6
    with workprec(192):
        s = make_schedule(0.3, 3, 0.5)
        v = reg_n3(z_square, s, precision_bits=192)
        assert abs(v.value.value + mp.pi ** 2 / 6) < 1e-10
        tr = torsion_order(v, 48, 1e-6)
        assert tr.order == 24
        assert tr.certificate == Fraction(1, 24)


def test_reg_n3_z_minus1_matches_dilogarithm(z_minus1):
    # the oracle value of the line integral is Li2(-1) = -pi^2/12; the same
    # orientation that makes the Totaro curve +pi^2/6 forces the minus sign
    with workprec(192):
        s = make_schedule(0.3, 3, 0.5)
        v = reg_n3(z_minus1, s, precision_bits=192)
        oracle = li2(mp.mpc(-1)).value
        assert abs(v.value.value - oracle) <= 10 * max(v.value.radius, 1e-20)
        assert abs(v.value.value + mp.pi ** 2 / 12) < 1e-10


def test_reg_n3_linearity(z1):
    with workprec(192):
        s = make_schedule(0.3, 3, 0.5)
        doubled = Precycle(3, 2, [CurveComponent(3, z1.components[0].coords, 2)],
                           order=1)
        v1 = reg_n3(z1, s, precision_bits=192)
        v2 = reg_n3(doubled, s, precision_bits=192)
        k, resid = lattice_difference(v2.value.value, 2 * v1.value.value, 2)
        assert float(resid) < 1e-15


def test_reg_n3_degenerate_insensitive(z1):
    t = RationalFunction.t(1)
    with workprec(192):
        s = make_schedule(0.3, 3, 0.5)
        deg = CurveComponent(3, (t, RationalFunction.from_rational(5, 1),
                                 RationalFunction.from_rational(7, 1)), 3)
        bigger = Precycle(3, 2, list(z1.components) + [deg], order=1)
        v1 = reg_n3(z1, s, precision_bits=192)
        v2 = reg_n3(bigger, s, precision_bits=192)
        assert abs(v1.value.value - v2.value.value) <= \
            v1.value.radius + v2.value.radius + 1e-20


def test_crossing_term_sweep_invariance(mccarthy):
    # moving the second cut across the path changes both the line integral
    # branch and the crossing sum; their combination must not move at all
    with workprec(192):
        e1, e3 = mp.mpf("0.2"), mp.mpf("1e-6")
        vals = []
        ncross = []
        for e2 in (mp.mpf("0.3"), mp.mpf("0.02")):
            v = reg_n3(mccarthy, PhaseSchedule(1, (e1, e2, e3)),
                       precision_bits=192)
            vals.append(v)
            ncross.append(sum(len(e["crossings"]) for e in v.breakdown))
        assert any(n > 0 for n in ncross)  # the sweep really crosses the cut
        diff = abs(vals[0].value.value - vals[1].value.value)
        assert float(diff) <= vals[0].value.radius + \
            vals[1].value.radius + 1e-20


def test_crossing_stretches_agree_across_the_sweep(mccarthy):
    # the stretches that end at a crossing, integrated at 128 bits, against
    # the same schedules at 256 bits: each ball holds its reference, and
    # the two sides of the sweep agree to the span floor, far inside the
    # radii
    e1, e3 = mp.mpf("0.2"), mp.mpf("1e-6")
    vals = []
    for e2 in (mp.mpf("0.3"), mp.mpf("0.02")):
        s = PhaseSchedule(1, (e1, e2, e3))
        with workprec(128):
            v = reg_n3(mccarthy, s, precision_bits=128)
        with workprec(256):
            ref = reg_n3(mccarthy, s, precision_bits=256)
            assert abs(mp.mpc(v.value.value) - ref.value.value) <= v.value.radius
        assert sum(len(e["crossings"]) for e in v.breakdown) > 0
        vals.append(v)
    with workprec(256):
        diff = abs(mp.mpc(vals[0].value.value) - mp.mpc(vals[1].value.value))
    assert diff < 1e-20


def test_mccarthy_evaluates_at_the_top_of_the_precision_range(mccarthy):
    # a side that doubles leave open at a crossing is read with the
    # rotation made 16 bits above the working precision, which at 1024
    # bits lies above the supported range: it is made all the same, and
    # the value lies inside the 256-bit ball
    with workprec(1024):
        reports = [search_admissible(mccarthy, bound, precision_bits=1024)
                   for bound in (0.3, 0.1)]
        v = reg_n3(mccarthy, reports[0].schedule, precision_bits=1024)
        check = phase_independence_check(
            mccarthy, [rep.schedule for rep in reports], precision_bits=1024)
    assert sum(len(e["crossings"]) for e in v.breakdown) > 0
    assert check["ok"] and len(check["values"]) == 2
    with workprec(256):
        ref = reg_n3(mccarthy, search_admissible(
            mccarthy, 0.3, precision_bits=256).schedule, precision_bits=256)
        assert abs(v.value.value - ref.value.value) <= ref.value.radius
    assert 0 < v.value.radius < ref.value.radius


def test_phase_independence_z1(z1):
    with workprec(192):
        schedules = [make_schedule(0.3, 3, lam) for lam in (0.3, 0.6)]
        rep = phase_independence_check(z1, schedules, precision_bits=192)
        assert rep["ok"]
        assert all(p["lattice_multiple"] == 0 for p in rep["pairs"])


@pytest.mark.parametrize("lams, tol", [
    ((), 1e-8),
    ((0.3, 0.6), float("nan")),
    ((0.3, 0.6), -1.0),
    ((0.3, 0.6), float("inf")),
], ids=["no_schedules", "tol_nan", "tol_negative", "tol_inf"])
def test_phase_independence_check_refuses_bad_arguments(z1, lams, tol):
    # an empty schedule list has no value to compare, and a tolerance that
    # is not finite and >= 0 compares nothing: both are refused, as
    # regulator() refuses such a tolerance
    with workprec(128):
        schedules = [make_schedule(0.3, 3, lam) for lam in lams]
        with pytest.raises(ChowregError):
            phase_independence_check(z1, schedules, precision_bits=128, tol=tol)


def test_regulator_pipeline_z1(z1, trace_log):
    # each schedule's cut locus is traced once, inside the schedule search,
    # and evaluated from the report that accepted it
    traced_in_search = trace_log("chowreg.regulator")
    with workprec(192):
        v = regulator(z1, precision_bits=192)
        assert abs(v.value.value - mp.pi ** 2 / 6) < 1e-10
        assert len(v.agreement) == 3
        assert all(a["ok"] for a in v.agreement)
    assert traced_in_search == [True] * 3


def test_regulator_pipeline_point_cycle():
    with workprec(160):
        z5 = CyclotomicNumber.zeta(5)
        pz = Precycle(1, 1, [PointComponent(1, (z5,), 1)], order=5)
        v = regulator(pz, precision_bits=160)
        tr = torsion_order(v, 20, 1e-8)
        assert tr.order == 5
        assert tr.certificate == Fraction(1, 5)


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("text, oracle", [
    ("1-1/t ; 1/2 ; (t+2)/(t+3)",
     lambda: mp.log(mp.mpf(1) / 2) * mp.log(mp.mpf(9) / 8)),
    ("1-1/t ; 1/3 ; (t+2)/(t+3)",
     lambda: mp.log(mp.mpf(1) / 3) * mp.log(mp.mpf(9) / 8)),
    ("(t-2)/(t+1) ; -5 ; (t+3)/(t-7)",
     lambda: (mp.log(5) - mp.pi * 1j) * mp.log(4)),
], ids=["half", "third", "minus_five"])
def test_constant_second_coordinate_on_a_moebius_path(text, oracle, bits):
    # with f_2 = c the second cut never meets the path, and the line
    # integral is log^{eps_2}(c) (log f_3(zero of f_1) - log f_3(pole of
    # f_1)) modulo (2 pi i)^2: log(9/8) = log f_3(1) - log f_3(0) on the
    # first two, and log 4 = log f_3(2) - log f_3(-1) on the third, where
    # f_3 stays near the negative axis and log(-5) = log 5 - pi i on the
    # eps_2 branch.  The oracle is taken 64 bits higher
    Z = parse_cycle_file("field cyclotomic(1)\ncycle const_f2 n=3 p=2\n"
                         f"component mult=1 {text}\n")[0]
    with workprec(bits):
        v = reg_n3(Z, make_schedule(0.3, 3, 0.5), precision_bits=bits)
    assert v.breakdown[0]["crossings"] == []
    with workprec(bits + 64):
        _, resid = lattice_difference(v.value.value, oracle(), 2)
    assert resid <= v.value.radius


def _sided_log_branch(w, phase, rot, guard, side_hint):
    """log w with argument in (-pi - phase, pi - phase], given ``rot`` =
    e^{i phase}, the hint resolving values inside the guard sliver around
    the cut from one side: K was this less sum n log(lambda - s)."""
    phi = mp.arg(-w * rot)
    subtract = phi > -guard * side_hint
    theta = mp.pi - phase + phi - (2 * mp.pi if subtract else 0)
    return mp.mpc(mp.log(abs(w)), theta)


def _const_f2(text):
    return parse_cycle_file("field cyclotomic(1)\ncycle const_f2 n=3 p=2\n"
                            f"component mult=1 {text}\n")[0]


# (cycle, schedule seed) or (cycle, None) for make_schedule(0.3, 3, 0.5)
_K_CYCLES = {
    "totaro": (lambda: load_fixture("z1_totaro"), 0),
    "petras": (lambda: load_fixture("petras_zeta5"), 0),
    "z_minus1": (lambda: load_fixture("z_minus1"), 0),
    **{f"dilog_{n}_{k}": (functools.partial(dilog_cycle, n, k), 0)
       for n, k in ((3, 1), (4, 1), (5, 2), (6, 1), (7, 3))},
    **{f"mccarthy_seed{seed}": (
        lambda: load_fixture("mccarthy_counterexample"), seed)
       for seed in range(5)},
    "totaro_s2_plus_i": (lambda: load_fixture("totaro_s2_plus_i"), 0),
    "const_half": (lambda: _const_f2("1-1/t ; 1/2 ; (t+2)/(t+3)"), None),
    "const_third": (lambda: _const_f2("1-1/t ; 1/3 ; (t+2)/(t+3)"), None),
    "const_minus_five": (
        lambda: _const_f2("(t-2)/(t+1) ; -5 ; (t+3)/(t-7)"), None),
}


@pytest.mark.parametrize("name", sorted(_K_CYCLES))
def test_k_is_the_sided_log_of_f2_less_its_line_logs(name, monkeypatch):
    # K = log c + N log(scale) + 2 pi i m, from the leading coefficient of
    # f_2 on its line and the integer m, is the K read from the sided
    # branch of log f_2 at a point w = f_2 of the line, less the logs of
    # lambda - s there: the same multiple of 2 pi i, and equal within
    # 2^(8 - bits) (1 + |K| + 1 / |w|).  The last term is the reference's
    # own error: w carries the rounding of the places of the zeros of f_2
    # at the working precision, about 2^-bits absolute, which the traced
    # chords of Totaro o (s^2 + i) next to the exact zero of f_1, where
    # f_2 vanishes too, read with |w| down to 5e-25.  The reference reads
    # w from the evaluator _sided_k is handed, at the working precision,
    # whether or not _sided_k reads it in doubles.  Every K that _line
    # takes is checked, on Moebius paths with and without crossings
    # (McCarthy's carry side hints), on traced branches, and for a
    # constant f_2 (N = 0)
    regulator_module = importlib.import_module("chowreg.regulator")
    sided_k, line = regulator_module._sided_k, regulator_module._line
    line_images = regulator_module._line_images
    bits, checked, taken, places = 128, [], [], {}

    def recording_images(terms, direction):
        # a line read in doubles hands _sided_k the double images of its
        # places s; the reference reads them at the working precision
        images = line_images(terms, direction)
        if images is not None:
            places[id(images[0])] = images[0], terms.places[0]
        return images

    def checking_k(ev, x, eps2, precision_bits, guard, hint, lead, lam,
                   zeros2):
        k = sided_k(ev, x, eps2, precision_bits, guard, hint, lead, lam,
                    zeros2)
        w = ev.value(x)
        if id(zeros2) in places:
            # such a line reads K at r = 1, where x is its direction
            zeros2 = [(n, a / x if a != 0 else mp.mpc(0))
                      for n, a in places[id(zeros2)][1]]
        fine = precision_bits + regulator_module._EXTRA_BITS
        ref = _sided_log_branch(w, eps2, _rotation(eps2, fine)[0],
                                guard, hint) - sum(
            n * mp.log(lam - s) for n, s in zeros2)
        checked.append((k, abs(k - ref) / (1 + abs(k) + 1 / abs(w))))
        return k

    def recording_line(zeros3, pairs, stops, ks, *args, **kwargs):
        taken.extend(ks)
        return line(zeros3, pairs, stops, ks, *args, **kwargs)

    monkeypatch.setattr(regulator_module, "_sided_k", checking_k)
    monkeypatch.setattr(regulator_module, "_line", recording_line)
    monkeypatch.setattr(regulator_module, "_line_images", recording_images)
    build, seed = _K_CYCLES[name]
    Z = build()
    with workprec(bits):
        schedule = (make_schedule(0.3, 3, 0.5) if seed is None else
                    search_admissible(Z, 0.3, seed=seed, precision_bits=bits))
        reg_n3(Z, schedule, precision_bits=bits)
    assert taken and taken == [k for k, _ in checked]
    assert max(err for _, err in checked) <= mp.mpf(2) ** (8 - bits)


def _totaro_composed(order, g):
    return parse_cycle_file(
        f"field cyclotomic({order})\ncycle totaro_g n=3 p=2\n"
        f"component mult=1 1-1/({g}) ; 1-({g}) ; 1/({g})\n")[0]


def _mccarthy_composed(g):
    # McCarthy's curve composed with g: a first coordinate of degree deg g,
    # and the crossings of the accepted schedule lifted to each branch
    return parse_cycle_file(
        f"field cyclotomic(4)\ncycle mccarthy_g n=3 p=2\n"
        f"component mult=1 i*({g})-1 ; "
        f"-((1+({g}))*(1+3*({g})))/((1+i*({g}))*(1-2*({g}))) ; "
        f"(i*({g})-1)/(3+({g}))\n")[0]


# Totaro's cycle composed with a map g of degree k on the parameter line pushes
# forward to k times itself, so its regulator is k * pi^2/6 (Kerr-Lewis-
# Mueller-Stach, Compositio Math. 2006); these send a first coordinate of
# degree >= 2 through reg_n3
@pytest.mark.parametrize("order, g, k, torsion", [
    (1, "t^2", 2, 12),
    (4, "t^2+i", 2, 12),
    (3, "t^3", 3, 8),
], ids=["s2", "s2_plus_i", "s3"])
def test_regulator_of_reparametrized_totaro(order, g, k, torsion):
    Z = _totaro_composed(order, g)
    if g == "t^2+i":
        assert Z.components == load_fixture("totaro_s2_plus_i").components
    with workprec(128):
        v = regulator(Z, precision_bits=128, tol=1e-8)
        tr = torsion_order(v, max_order=200, tol=1e-6)
    with workprec(128 + 64):
        err = abs(mp.mpc(v.value.value) - k * mp.pi ** 2 / 6)
    assert err <= v.value.radius, (
        f"error {mp.nstr(err, 3)} > radius {v.value.radius:.3g}")
    assert tr.order == torsion


def test_totaro_s3_at_64_bits_holds_its_oracle():
    # the polygon of a traced path reads no point within rounding of a zero
    # or pole: it runs to the exact zeros zeta_3^k of 1 - 1/t^3, where a
    # quadrature node used to round onto one at 64 bits and refuse
    Z = _totaro_composed(3, "t^3")
    with workprec(64):
        v = regulator(Z, precision_bits=64)
        tr = torsion_order(v, max_order=200, tol=1e-6)
    with workprec(128):
        assert abs(mp.mpc(v.value.value) - mp.pi ** 2 / 2) <= v.value.radius
    assert tr.order == 8


def _divisor_key(points):
    def loc(x):
        return (x.value, x.radius) if isinstance(x, ComplexApprox) else x
    return [(loc(p.location), p.multiplicity, p.factor) for p in points]


def test_regulator_computes_each_divisor_once(monkeypatch):
    # the prechecks and every schedule's admissibility check read the
    # divisor of each coordinate; it is computed once, one linear_factors
    # probe per nonconstant numerator and denominator
    funcfield = importlib.import_module("chowreg.funcfield")
    probed = []
    linear_factors = funcfield.linear_factors

    def counting(p, *args, **kwargs):
        probed.append(p)
        return linear_factors(p, *args, **kwargs)

    monkeypatch.setattr(funcfield, "linear_factors", counting)
    Z = load_fixture("petras_zeta5")
    coords = [f for comp in Z.components for f in comp.coords
              if not f.is_constant()]
    polys = [p for f in coords for p in (f.num, f.den) if p.degree >= 1]
    with workprec(128):
        regulator(Z, precision_bits=128)
        assert sorted(map(id, probed)) == sorted(map(id, polys))
        for f in coords:
            cached = f.divisor()
            assert cached is not f.divisor()
            fresh = RationalFunction(f.num, f.den).divisor()
            assert _divisor_key(cached) == _divisor_key(fresh)


def test_regulator_computes_each_coordinates_critical_values_once(
        monkeypatch):
    # every schedule's admissibility check reads the critical values of each
    # coordinate; they are found once, one Wronskian root solve per
    # nonconstant coordinate, and equal those of a fresh function
    funcfield = importlib.import_module("chowreg.funcfield")
    solved = []
    roots_numeric = funcfield.roots_numeric

    def counting(p, *args, **kwargs):
        solved.append(p)
        return roots_numeric(p, *args, **kwargs)

    monkeypatch.setattr(funcfield, "roots_numeric", counting)
    Z = load_fixture("petras_zeta5")
    coords = [f for comp in Z.components for f in comp.coords
              if not f.is_constant()]

    def key(pairs):
        return [(None if p is None else (p.value, p.radius), v.value, v.radius)
                for p, v in pairs]

    with workprec(128):
        regulator(Z, precision_bits=128)
        assert len(solved) == len(coords)
        for f in coords:
            cached = f.critical_values()
            assert cached is not f.critical_values()
            fresh = RationalFunction(f.num, f.den).critical_values()
            assert key(cached) == key(fresh)
        assert len(solved) == len(coords) * 2


@pytest.mark.parametrize("name", ["z1_totaro", "petras_zeta5"])
def test_a_second_regulator_call_builds_no_memo(name):
    # every memo of the precycle, of a component, of its coordinates and of
    # the functions kept in those memos (f_1^-1, the charts) is built on
    # the first regulator() call: a second call adds no key and keeps every
    # value the same object
    Z = load_fixture(name)

    def memos():
        own = [Z._memo] + [m for comp in Z.components
                           for m in (comp._memo,
                                     *(f._memo for f in comp.coords))]
        return own + [v._memo for m in own for v in m.values()
                      if isinstance(v, RationalFunction)]

    with workprec(128):
        regulator(Z, precision_bits=128)
        first = [dict(m) for m in memos()]
        regulator(Z, precision_bits=128)
        second = memos()
    assert list(first[0]) == [("face_proper", 128), ("facets", 128)]
    assert any(("chart_terms", 128) in m for m in first)
    assert [m.keys() for m in second] == [m.keys() for m in first]
    assert all(m[k] is f[k] for m, f in zip(second, first) for k in f)


# (cycle, schedule seeds): Moebius paths with and without crossings, places
# at 0 and coincident ones, and first coordinates composed with Moebius maps
_BAND_CYCLES = {
    "totaro": (lambda: load_fixture("z1_totaro"), (0,)),
    "petras": (lambda: load_fixture("petras_zeta5"), (0,)),
    "z_minus1": (lambda: load_fixture("z_minus1"), (0,)),
    "mccarthy": (lambda: load_fixture("mccarthy_counterexample"), range(5)),
    **{f"dilog_{n}_{k}": (functools.partial(dilog_cycle, n, k), (0,))
       for n, k in ((5, 2), (7, 3), (12, 5))},
    "dilog_pair_8_3": (lambda: dilog_pair(8, 3), (0,)),
    "totaro_2t_plus_1_over_t_plus_3": (
        lambda: _totaro_composed(1, "(2*t+1)/(t+3)"), (0,)),
    "totaro_1_over_t": (lambda: _totaro_composed(1, "1/t"), (0,)),
    "totaro_it_plus_2": (lambda: _totaro_composed(4, "i*t+2"), (0,)),
}


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("name", sorted(_BAND_CYCLES))
def test_double_image_sides_give_the_working_precision_balls(name, bits,
                                                             monkeypatch):
    # every side, half-plane and pair inversion of a line, the side that
    # fixes K on a line without crossings and the guards at its ends are
    # read from double images unless they fall within the band, where the
    # working-precision test takes them; with a band of oo that test takes
    # every one, and every chord ball comes out bit-identical.  Without
    # the band, every Moebius line without crossings of these cycles is
    # read in doubles: f_2 is evaluated at no point of it, and no end
    # guard makes the scale of its working-precision test.  With it, f_2
    # is evaluated once on each such line, for its K, and every guard
    # makes its scale
    regulator_module = importlib.import_module("chowreg.regulator")
    quadrature = regulator_module.quadrature
    line_images = regulator_module._line_images
    diverges = regulator_module._diverges
    value = RFEvaluator.value
    build, seeds = _BAND_CYCLES[name]
    Z = build()
    with workprec(bits):
        reports = [search_admissible(Z, 0.3, seed=seed, precision_bits=bits)
                   for seed in seeds]

    def chords():
        balls, plain = [], []
        lines = {"plain": 0, "imaged": 0, "values": 0, "guards": 0,
                 "scaled": 0}

        def recording(comp, path, xs, *args):
            plain.append(not (xs or path.points))
            try:
                out = quadrature(comp, path, xs, *args)
            finally:
                plain.pop()
            balls.append([(seg, ball.value, ball.radius)
                          for seg, _, _, ball in out])
            lines["plain"] += not (xs or path.points)
            return out

        def counting_images(*args):
            images = line_images(*args)
            lines["imaged"] += images is not None
            return images

        def counting_value(self, *args):
            lines["values"] += plain[-1]
            return value(self, *args)

        def counting_diverges(v, scale, bits):
            def counted():
                lines["scaled"] += 1
                return scale()
            lines["guards"] += 1
            return diverges(v, counted, bits)

        monkeypatch.setattr(regulator_module, "quadrature", recording)
        monkeypatch.setattr(regulator_module, "_line_images", counting_images)
        monkeypatch.setattr(RFEvaluator, "value", counting_value)
        monkeypatch.setattr(regulator_module, "_diverges", counting_diverges)
        with workprec(bits):
            for rep in reports:
                reg_n3(Z, rep, precision_bits=bits)
        return balls, lines

    balls, lines = chords()
    assert lines["imaged"] == lines["plain"]
    assert lines["values"] == lines["scaled"] == 0 < lines["guards"]
    monkeypatch.setattr(regulator_module, "_BAND", math.inf)
    forced, forced_lines = chords()
    assert forced_lines["imaged"] == 0
    assert forced_lines["values"] == forced_lines["plain"]
    assert forced_lines["scaled"] == forced_lines["guards"] == lines["guards"]
    assert balls and forced == balls


@pytest.mark.parametrize("trial", range(8))
def test_the_chart_image_bound_holds(trial):
    # f_2 in doubles by Horner's rule on the coefficient images, at the
    # image of an mpc point: wherever _chart_image reads it, it lies within
    # eta |w| of the evaluator's value at the working precision.  The
    # points lie 1 to 2^-40 from a zero or a pole, and the nearest are
    # refused
    regulator_module = importlib.import_module("chowreg.regulator")
    rng = random.Random(trial)
    degree = 1 + trial % 3
    roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
             for _ in range(2 * degree)]

    def coefficients(rs):
        # c prod (x - r), constant term first
        cs = [complex(rng.uniform(1, 3))]
        for r in rs:
            cs = [(cs[k - 1] if k else 0) - r * (cs[k] if k < len(cs) else 0)
                  for k in range(len(cs) + 1)]
        return cs

    num, den = coefficients(roots[:degree]), coefficients(roots[degree:])
    counts = [0, 0]
    with workprec(128):
        nc, dc = ([mp.mpc(c) for c in cs] for cs in (num, den))
        images = tuple([complex(c) for c in cs] for cs in (nc, dc))
        for root in roots:
            for e in range(0, 41, 4):
                x = mp.mpc(root) + mp.expj(rng.uniform(0, 6.3)) * mp.ldexp(
                    1, -e)
                read = regulator_module._chart_image(images, complex(x))
                counts[read is None] += 1
                if read is None:
                    continue
                w, eta = read
                ref = RFEvaluator._horner(nc, x) / RFEvaluator._horner(dc, x)
                assert abs(complex(ref) - w) <= eta * abs(w)
    assert all(counts)
    assert regulator_module._chart_image(None, 1j) is None


@pytest.mark.parametrize("name", ["petras", "dilog_12_5"])
def test_k_near_a_zero_of_f2_is_read_at_the_working_precision(
        name, monkeypatch):
    # within 2^-45 of a zero of f_2 in its chart, the Horner bound of the
    # double value is not below 2^-40 of it: K's side is read from f_2 at
    # the working precision, and K is the one that reading gives.  At a
    # point clear of the zero the doubles decide, with no evaluation, and
    # give the K of the working-precision reading, which an evaluator
    # without coefficient images takes, too
    regulator_module = importlib.import_module("chowreg.regulator")
    wavefront_module = importlib.import_module("chowreg.wavefront")
    Z = _BAND_CYCLES[name][0]()
    comp = Z.components[-1]
    bits = 128
    with workprec(bits):
        rep = search_admissible(Z, 0.3, precision_bits=bits)
        eps1, eps2 = rep.schedule.phases[:2]
        direction = wavefront_module._direction(eps1, bits)
        ev = wavefront_module._chart(comp, 1, 2).evaluator(bits)
        images = wavefront_module._coefficient_images(ev)
        zero = next(a for n, a in regulator_module._chart_terms(
            comp, bits).places[0] if n > 0)
        assert zero != 0
    value, calls = RFEvaluator.value, []

    def counting(self, x):
        calls.append(x)
        return value(self, x)

    monkeypatch.setattr(RFEvaluator, "value", counting)
    with mp.workprec(bits + 16):
        guard = mp.ldexp(1, -bits // 2)
        for x, read in ((zero + mp.ldexp(1, -46), False),
                        (zero + mp.mpc(0.25, 0.5), True)):
            assert (regulator_module._chart_image(images, complex(x))
                    is not None) == read
            ks = []
            for doubles in (True, False):
                monkeypatch.setattr(
                    regulator_module, "_coefficient_images",
                    wavefront_module._coefficient_images if doubles
                    else lambda ev: None)
                calls.clear()
                ks.append(regulator_module._sided_k(
                    ev, x, eps2, bits, guard, 0, 0, x / direction,
                    [(1, zero / direction)]))
                assert calls == ([] if doubles and read else [x])
            assert ks[0] == ks[1]


# the dunders of mpmath's mpf and mpc through which the package does its
# multiprecision arithmetic, comparisons and conversions
_MP_DUNDERS = ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv",
               "rtruediv", "pow", "rpow", "neg", "pos", "abs", "eq", "ne",
               "lt", "le", "gt", "ge", "bool", "complex", "float", "int")


@pytest.mark.parametrize("name, at_most", [("z1_totaro", 60),
                                           ("petras_zeta5", 180)])
def test_a_crossing_free_line_makes_few_multiprecision_operations(
        name, at_most, monkeypatch):
    # a warm reg_n3 at 128 bits on a cycle without crossings keeps the
    # structure of each line per component, reads K's side and the end
    # guards in doubles and makes no operation whose result is its
    # operand: Totaro's one line takes at most 60 mpf and mpc operations,
    # where redoing that work took 112 of them, and f_2 is evaluated at
    # no point
    Z = load_fixture(name)
    with workprec(128):
        regulator(Z, precision_bits=128)
        rep = search_admissible(Z, 0.1, precision_bits=128)
        reg_n3(Z, rep, precision_bits=128)
    counts = {"ops": 0, "values": 0}

    def counting(original, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for cls in (type(mp.mpf(1)), type(mp.mpc(1))):
        for dunder in _MP_DUNDERS:
            method = getattr(cls, f"__{dunder}__", None)
            if method is not None:
                monkeypatch.setattr(cls, f"__{dunder}__",
                                    counting(method, "ops"))
    monkeypatch.setattr(RFEvaluator, "value",
                        counting(RFEvaluator.value, "values"))
    with workprec(128):
        reg_n3(Z, rep, precision_bits=128)
    monkeypatch.undo()
    assert 0 < counts["ops"] <= at_most
    assert counts["values"] == 0


def _warm_call_counts(name, bits, monkeypatch):
    """The mp.expj, mp.arg and mp.exp calls of a warm ``regulator`` call
    on the fixture ``name`` at ``bits``."""
    Z = load_fixture(name)
    counts = {"expj": 0, "arg": 0, "exp": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with workprec(bits):
        regulator(Z, precision_bits=bits)
        for name in counts:
            monkeypatch.setattr(mp, name, counting(name, getattr(mp, name)))
        regulator(Z, precision_bits=bits)
    return counts


def test_a_warm_petras_regulator_call_makes_each_rotation_once(monkeypatch):
    # each schedule of the search's ladder is built once per process, and
    # the rotations e^{i eps_k}, the direction e^{i(pi - eps_1)} and
    # i arg(direction) are made once per phase or direction and
    # precision: a warm call makes none of them, nor a phase exp(-1/eps_k)
    assert _warm_call_counts("petras_zeta5", 128, monkeypatch) == {
        "expj": 0, "arg": 0, "exp": 0}


def test_a_warm_totaro_regulator_call_makes_no_rotation(monkeypatch):
    assert _warm_call_counts("z1_totaro", 256, monkeypatch) == {
        "expj": 0, "arg": 0, "exp": 0}


def test_a_regulator_call_reads_the_same_with_its_schedules_kept(z1):
    # emptied, the table of schedules is built again by the next call: its
    # value, radius, agreement and schedule are those of a warm call, bit
    # for bit, and the call after it reads the schedule it kept
    def call():
        with workprec(128):
            return regulator(z1, precision_bits=128)

    warm = call()
    _built_schedule.cache_clear()
    cold = call()
    again = call()
    assert cold.schedule_used is not warm.schedule_used
    assert again.schedule_used is cold.schedule_used
    for v in (warm, again):
        assert (v.value.value, v.value.radius) == (cold.value.value,
                                                   cold.value.radius)
        assert v.agreement == cold.agreement
        assert v.schedule_used == cold.schedule_used
        assert v.schedule_used.describe() == cold.schedule_used.describe()


def test_a_precision_sweep_keeps_its_constants(z1):
    # a sweep reads its constants at five working precisions and at
    # _EXTRA_BITS above each: once two cycles have run, a third makes none
    def sweep():
        for bits in (53, 64, 80, 96, 128):
            with workprec(bits):
                regulator(z1, precision_bits=bits)

    sweep()
    sweep()
    misses = _constants.cache_info().misses
    sweep()
    assert _constants.cache_info().misses == misses


def test_the_lattice_generator_is_refused_beyond_weight_two():
    with workprec(128):
        for p in (0, 3):
            with pytest.raises(ChowregError, match="p = 1 or 2"):
                _generator(p)


def test_regulator_refuses_open_cycle(z_minus1):
    with workprec(128):
        with pytest.raises(ChowregError, match="not closed"):
            regulator(z_minus1, precision_bits=128)


def test_regulator_normalizes_when_needed():
    t = RationalFunction.t(1)
    V = Precycle(3, 2, [CurveComponent(
        3, ((t - 1) / (t - 2), 1 / t, RationalFunction.from_rational(2, 1)), 1)],
        order=1)
    with workprec(160):
        v = regulator(V, precision_bits=160)
        # CH^2(Q, 3) is torsion of order dividing 24; this class is trivial
        tr = torsion_order(v, 48, 1e-6)
        assert tr.order == 1
        assert abs(v.value.value) < 1e-15


def test_regulator_rejects_two_cube(graph_4_2):
    with workprec(128):
        with pytest.raises(ChowregError, match="intersection"):
            regulator(graph_4_2, precision_bits=128)


def test_empty_cycle_regulates_to_zero():
    empty = Precycle(3, 2, [], order=1)
    with workprec(128):
        v = regulator(empty, precision_bits=128)
        assert v.value.value == 0
        tr = torsion_order(v, 10, 1e-8)
        assert tr.order == 1


def test_torsion_recognition_exact_values():
    with workprec(192):
        for value, expected_order, expected_q in (
            (mp.pi ** 2 / 6, 24, Fraction(-1, 24)),
            (7 * mp.pi ** 2 / 30, 120, Fraction(-7, 120)),
            (mp.mpf(0), 1, Fraction(0)),
        ):
            v = RegulatorValue(p=2, value=ComplexApprox(mp.mpc(value), 1e-30),
                               schedule_used=None)
            tr = torsion_order(v, 200, 1e-6)
            assert tr.order == expected_order
            assert tr.certificate == expected_q


def test_torsion_recognition_at_a_tolerance_below_1e_15(z1, petras):
    # a tolerance was once rounded to a fraction of denominator at most
    # 10^15, which is 0 below about 5e-16: nothing was recognized then,
    # with residual nan, though Totaro's radius at 256 bits is 1e-74
    for Z, bits, order, q in ((z1, 256, 24, Fraction(-1, 24)),
                              (petras, 128, 120, Fraction(-7, 120))):
        with workprec(bits):
            v = regulator(Z, precision_bits=bits)
            for tol in (1e-6, 1e-15, 1e-16, 1e-30):
                tr = torsion_order(v, 200, tol)
                assert (tr.order, tr.certificate) == (order, q)


def test_torsion_rejects_imprecise_input():
    with workprec(128):
        v = RegulatorValue(p=2, value=ComplexApprox(mp.mpc(1), 1e-3),
                           schedule_used=None)
        with pytest.raises(PrecisionError):
            torsion_order(v, 200, 1e-6)


@pytest.mark.parametrize("max_order", [math.nan, math.inf],
                         ids=["nan", "inf"])
def test_torsion_refuses_a_max_order_that_is_not_finite(max_order):
    # every comparison with nan is false, so nan once passed the argument
    # check and recognized pi^2/6 as of order 24; inf asked for an error
    # radius below tol / oo = 0 and left as a misleading PrecisionError
    with workprec(128):
        v = RegulatorValue(p=2, value=ComplexApprox(mp.mpc(mp.pi ** 2 / 6),
                                                    1e-30),
                           schedule_used=None)
        with pytest.raises(ChowregError, match="finite max_order"):
            torsion_order(v, max_order=max_order)


def test_totaro_at_1024_bits_holds_its_oracle(z1):
    # the top of the supported precision range: the float radius has not
    # underflowed, and it holds pi^2 / 6, which it did not at 1090 bits
    with workprec(1024):
        v = regulator(z1, precision_bits=1024)
        tr = torsion_order(v, 200, 1e-6)
    assert 0 < v.value.radius < 1e-300
    with mp.workprec(1024 + 64):
        assert abs(mp.mpc(v.value.value) - mp.pi ** 2 / 6) <= v.value.radius
    assert tr.order == 24


@pytest.mark.parametrize("bits", [52, 1025])
def test_regulator_refuses_a_precision_outside_53_to_1024_bits(z1, bits):
    # above 1024 bits the float radii underflow, and a value would come
    # with a radius of 0 that bounds nothing
    with pytest.raises(PrecisionError, match=f"got {bits} bits"):
        regulator(z1, precision_bits=bits)


def test_torsion_none_for_non_torsion():
    with workprec(192):
        v = RegulatorValue(p=2, value=ComplexApprox(mp.mpc(mp.sqrt(2)), 1e-30),
                           schedule_used=None)
        tr = torsion_order(v, 200, 1e-9)
        assert tr.order is None


@pytest.mark.parametrize("bits", [53, 128, 256])
@pytest.mark.parametrize("p", [1, 2])
def test_the_lattice_generator_is_the_mpc_power(p, bits):
    # (2 pi)^p i^p is the value of the mpc power (2 pi i)^p, bit for bit,
    # and the reduction it makes is the one that the power made
    with workprec(bits):
        gen = (2 * mp.pi * mp.mpc(0, 1)) ** p
        assert _generator(p) == gen
        assert (_generator(p).real, _generator(p).imag) == (gen.real,
                                                          gen.imag)
        for value in (mp.mpc(mp.pi ** 2 / 6), mp.mpc(0, 7), mp.mpc(-50, 40),
                      mp.mpc(7 * mp.pi ** 2 / 30) + 3 * gen,
                      mp.mpc(mp.mpf(1) / 3, -mp.mpf(2) / 7) - 2 * gen):
            coeff = value.real / gen.real if p % 2 == 0 else (
                value.imag / gen.imag)
            k = int(mp.floor(coeff + mp.mpf("0.5")))
            canon, got_k = _canonical_mod_lattice(value, p)
            assert got_k == k
            old = value - k * gen
            assert (canon.real, canon.imag) == (old.real, old.imag)


def test_results_read_at_their_own_precision(petras):
    # a value carries its precision, and q_value and torsion_order work at
    # it: outside workprec a 128-bit Petras value is still recognized at a
    # tolerance far below 2^-53, as inside
    with workprec(128):
        v = regulator(petras, precision_bits=128)
        inside = torsion_order(v, 200, 1e-20), v.q_value()
    assert v.precision_bits == 128
    outside = torsion_order(v, 200, 1e-20), v.q_value()
    assert (outside[0].order, outside[0].certificate) == (120,
                                                          Fraction(-7, 120))
    assert outside[0] == inside[0]
    assert outside[1] == inside[1]


def test_canonical_lattice_representative():
    with workprec(128):
        gen = (2 * mp.pi * mp.mpc(0, 1)) ** 2
        shifted = mp.pi ** 2 / 6 + 3 * gen
        canon, k = _canonical_mod_lattice(mp.mpc(shifted), 2)
        assert k == 3
        assert abs(canon - mp.pi ** 2 / 6) < 1e-25
        canon1, k1 = _canonical_mod_lattice(mp.mpc(0, 7), 1)
        assert k1 == 1
        assert abs(canon1 - mp.mpc(0, 7 - 2 * mp.pi)) < 1e-25
