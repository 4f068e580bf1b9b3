import importlib
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
    quadrature,
    reg_n1,
    reg_n3,
    regulator,
    search_admissible,
    torsion_order,
    trace_wavefront,
    workprec,
)
from chowreg.regulator import (
    _EXTRA_BITS,
    _MAX_LEVEL,
    RegulatorValue,
    _canonical_mod_lattice,
    _tanh_sinh_segment,
    lattice_difference,
)
from chowreg.funcfield import RFEvaluator
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


def test_quadrature_z1_line_integral(z1):
    # int_0^1 log(1-t) (-dt/t) = Li2(1) = pi^2/6, integrated in u = -log r
    # along the pole -> zero path, where dt/du = -1/dlog f_1
    with workprec(192):
        comp = z1.components[0]
        path = trace_wavefront(comp, 1, mp.mpf("1e-8"), precision_bits=192)[0]

        def fn(u):
            t = path.point_at(-u)
            return -mp.log(1 - t) / t * (-1 / path.evaluator.dlog(t))

        val = quadrature(fn, -path.sigma_hi, -path.sigma_lo,
                         precision_bits=192, tol=1e-24)
        assert abs(val.value - mp.pi ** 2 / 6) < 1e-10
        assert abs(val.value - mp.pi ** 2 / 6) <= 10 * max(val.radius, 1e-22)


def test_quadrature_constant_in_parameter():
    # the log-radius parameter measures one unit between r = 1 and r = e
    with workprec(128):
        val = quadrature(lambda u: mp.mpc(1), 0, 1, precision_bits=128,
                         tails=(False, False))
        assert abs(val.value - 1) < 1e-25


def test_segment_rule_log_kernel():
    # int_0^1 log(1+u)/u du = pi^2/12
    with workprec(160):
        val, err = _tanh_sinh_segment(lambda u: mp.log(1 + u) / u,
                                      mp.mpf(0), mp.mpf(1), 1e-30, 160, 9, {})
        assert abs(val - mp.pi ** 2 / 12) < 1e-25
        assert err < 1e-25


def test_quadrature_chunks_share_one_node_table(monkeypatch):
    # one table per call gives the same sum, bit for bit, as a fresh table
    # per chunk, and computes each abscissa once
    tanh_calls = []
    tanh = mp.tanh

    def counting_tanh(x):
        tanh_calls.append(x)
        return tanh(x)

    monkeypatch.setattr(mp, "tanh", counting_tanh)

    def fn(u):
        return mp.mpc(1, u) / (1 + u * u)

    bits = 128
    u_lo, u_hi = mp.mpf("-3"), mp.mpf(29)  # 4 chunks of length 8
    with workprec(bits):
        got = quadrature(fn, u_lo, u_hi, precision_bits=bits,
                         tails=(False, False))
    shared_calls = len(tanh_calls)
    tol = float(mp.mpf(2) ** (-bits // 3))
    total, err, fresh_calls = mp.mpc(0), 0.0, []
    with workprec(bits + _EXTRA_BITS):
        for k in range(4):
            del tanh_calls[:]
            val, e = _tanh_sinh_segment(fn, u_lo + 8 * k, u_lo + 8 * (k + 1),
                                        tol, bits, _MAX_LEVEL, {})
            total += val
            err += e
            fresh_calls.append(len(tanh_calls))
    assert got.value._mpc_ == total._mpc_
    assert got.radius == err
    assert shared_calls == max(fresh_calls) < sum(fresh_calls)


def test_reg_n3_z1(z1):
    with workprec(256):
        s = make_schedule(0.3, 3, 0.5)
        v = reg_n3(z1, s, precision_bits=256)
        assert abs(v.value.value - mp.pi ** 2 / 6) < 1e-10
        assert v.quadrature_error < 1e-12


def test_reg_n3_takes_one_newton_step_per_node(z1, monkeypatch):
    # coordinate 1 of the Totaro curve is Moebius, so every quadrature node
    # is the closed-form root of num - w den: no Newton step at all
    regulator_module = importlib.import_module("chowreg.regulator")
    counts = {"nodes": 0, "steps": 0}
    inside = []
    quad = regulator_module.quadrature
    newton_step = RFEvaluator.newton_step

    def counting_quadrature(fn, *args, **kwargs):
        def node(u):
            counts["nodes"] += 1
            return fn(u)

        inside.append(True)
        try:
            return quad(node, *args, **kwargs)
        finally:
            inside.pop()

    def counting_step(self, *args):
        if inside:
            counts["steps"] += 1
        return newton_step(self, *args)

    monkeypatch.setattr(regulator_module, "quadrature", counting_quadrature)
    monkeypatch.setattr(RFEvaluator, "newton_step", counting_step)
    with workprec(128):
        reg_n3(z1, make_schedule(0.3, 3, 0.5), precision_bits=128)
    assert counts["nodes"] > 0
    assert counts["steps"] == 0


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
        assert abs(v.value.value - oracle) <= 10 * max(v.quadrature_error, 1e-20)
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
            v1.quadrature_error + v2.quadrature_error + 1e-20


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
        assert float(diff) <= vals[0].quadrature_error + \
            vals[1].quadrature_error + 1e-20


def test_phase_independence_z1(z1):
    with workprec(192):
        schedules = [make_schedule(0.3, 3, lam) for lam in (0.3, 0.6)]
        rep = phase_independence_check(z1, schedules, precision_bits=192)
        assert rep["ok"]
        assert all(p["lattice_multiple"] == 0 for p in rep["pairs"])


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
    Z = parse_cycle_file(
        f"field cyclotomic({order})\ncycle totaro_g n=3 p=2\n"
        f"component mult=1 1-1/({g}) ; 1-({g}) ; 1/({g})\n")[0]
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


@pytest.mark.parametrize("bits", [53, 80])
def test_regulator_low_precision_raises_precision_error(z1, bits):
    # the first trace sample rounds onto the pole t = 0 of 1 - 1/t; no other
    # schedule can repair that, so the error is not a schedule failure
    with workprec(bits):
        with pytest.raises(PrecisionError, match=f"{bits} bits"):
            regulator(z1, precision_bits=bits)


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
                               schedule_used=None, quadrature_error=1e-30)
            tr = torsion_order(v, 200, 1e-6)
            assert tr.order == expected_order
            assert tr.certificate == expected_q


def test_torsion_rejects_imprecise_input():
    with workprec(128):
        v = RegulatorValue(p=2, value=ComplexApprox(mp.mpc(1), 1e-3),
                           schedule_used=None, quadrature_error=1e-3)
        with pytest.raises(PrecisionError):
            torsion_order(v, 200, 1e-6)


def test_torsion_none_for_non_torsion():
    with workprec(192):
        v = RegulatorValue(p=2, value=ComplexApprox(mp.mpc(mp.sqrt(2)), 1e-30),
                           schedule_used=None, quadrature_error=1e-30)
        tr = torsion_order(v, 200, 1e-9)
        assert tr.order is None


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
