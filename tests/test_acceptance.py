"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The headline evaluations
are cached at module scope so the torsion, independence, and oracle criteria
reuse them; the stated runtime budgets are asserted against the wall-clock
times of the cached computations.
"""

import json
import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import (
    CurveComponent,
    CyclotomicNumber,
    PhaseSchedule,
    Poly,
    Precycle,
    RationalFunction,
    admissible,
    is_normalized,
    li2,
    load_fixture,
    make_schedule,
    normalize,
    phase_independence_check,
    reg_n3,
    regulator,
    search_schedule,
    torsion_order,
    workprec,
)
from chowreg.cli import main as cli_main
from chowreg.cycles import boundary_squared_terms, check_face_proper, weil_symbol_product
from chowreg.regulator import lattice_difference

PRECISION = 256


def _report(name, detail):
    print(f"PASS {name}: {detail}")


@pytest.fixture(scope="module")
def z1_result():
    Z = load_fixture("z1_totaro")
    with workprec(PRECISION):
        t0 = time.perf_counter()
        v = regulator(Z, precision_bits=PRECISION, tol=1e-8)
        elapsed = time.perf_counter() - t0
    return v, elapsed


@pytest.fixture(scope="module")
def petras_result():
    Z = load_fixture("petras_zeta5")
    with workprec(PRECISION):
        t0 = time.perf_counter()
        v = regulator(Z, precision_bits=PRECISION, tol=1e-8)
        elapsed = time.perf_counter() - t0
    return v, elapsed


def test_criterion_1_totaro_value(z1_result):
    v, elapsed = z1_result
    with workprec(PRECISION):
        target = mp.pi ** 2 / 6
        diff = abs(v.value.value - target)
        assert diff < 1e-8, f"|value - pi^2/6| = {mp.nstr(diff, 5)}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report("criterion 1 (Totaro value)",
            f"regulator = {mp.nstr(v.value.value.real, 12)} = pi^2/6 "
            f"within {mp.nstr(diff, 3)}, {elapsed:.1f}s at {PRECISION} bits")


def test_criterion_2_totaro_torsion(z1_result):
    v, _ = z1_result
    with workprec(PRECISION):
        tr = torsion_order(v, max_order=200, tol=1e-6)
    assert tr.order == 24
    assert tr.certificate == Fraction(-1, 24)
    _report("criterion 2 (Totaro torsion)",
            f"order {tr.order}, certificate q = {tr.certificate}")


def test_criterion_3_petras_value_and_torsion(petras_result):
    v, elapsed = petras_result
    with workprec(PRECISION):
        target = 7 * mp.pi ** 2 / 30
        diff = abs(v.value.value - target)
        assert diff < 1e-8, f"|value - 7pi^2/30| = {mp.nstr(diff, 5)}"
        tr = torsion_order(v, max_order=200, tol=1e-6)
    assert tr.order == 120
    assert tr.certificate == Fraction(-7, 120)
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report("criterion 3 (Petras value and torsion)",
            f"regulator = {mp.nstr(v.value.value.real, 12)} = 7pi^2/30 within "
            f"{mp.nstr(diff, 3)}; order {tr.order}, q = {tr.certificate}; "
            f"{elapsed:.1f}s")


def test_criterion_4_counterexample_reproduction():
    Z = load_fixture("mccarthy_counterexample")
    bits = 128
    with workprec(bits):
        for eps in ("0.05", "0.1", "0.2", "0.4"):
            e = mp.mpf(eps)
            rep = admissible(Z, PhaseSchedule(1, (e, e, e)), precision_bits=bits)
            assert not rep.ok, f"equal phases {eps} unexpectedly admissible"
            witnesses = [f.witness.value for f in rep.failures
                         if f.kind == "triple" and f.witness is not None]
            assert witnesses, f"no triple-point witness at eps={eps}"
            delta = min(abs(w - mp.tan(e)) for w in witnesses)
            assert delta < 1e-6, f"witness off tan({eps}) by {mp.nstr(delta, 3)}"
        s = search_schedule(Z, 0.3, precision_bits=bits)
        assert s.is_b_nested()
        assert admissible(Z, s, precision_bits=bits).ok
    _report("criterion 4 (counterexample)",
            "equal phases fail with witness tan(eps) on {0.05,0.1,0.2,0.4}; "
            f"nested schedule {s.describe()} is admissible")


def test_criterion_5_phase_independence(z1_result, petras_result):
    z1v, z1t = z1_result
    pv, pt = petras_result
    Z1 = load_fixture("z1_totaro")
    with workprec(PRECISION):
        t0 = time.perf_counter()
        schedules = [make_schedule(0.3, 3, lam, PRECISION)
                     for lam in (0.35, 0.5, 0.65)]
        assert len({tuple(map(str, s.phases)) for s in schedules}) == 3
        rep = phase_independence_check(Z1, schedules,
                                       precision_bits=PRECISION, tol=1e-6)
        extra = time.perf_counter() - t0
        assert rep["ok"]
        for pair in rep["pairs"]:
            assert pair["residual"] < 1e-6
        # the Petras pipeline evaluated three shrinking-bound schedules
        assert len(pv.agreement) == 3
        for a in pv.agreement:
            assert a["ok"] and a["residual"] < 1e-6
    total = z1t + pt + extra
    assert total < 300.0, f"phase-independence budget exceeded: {total:.0f}s"
    _report("criterion 5 (phase independence)",
            f"Totaro at 3 schedules: residuals "
            f"{[mp.nstr(p['residual'], 2) for p in rep['pairs']]}; Petras "
            f"agreement residuals "
            f"{[mp.nstr(a['residual'], 2) for a in pv.agreement]}; "
            f"{total:.0f}s total")


def test_criterion_6_epsilon_to_zero_agreement():
    Z = load_fixture("z1_totaro")
    with workprec(PRECISION):
        target = mp.pi ** 2 / 6
        diffs = []
        errs = []
        for bound in ("0.3", "0.1", "0.03"):
            s = search_schedule(Z, mp.mpf(bound), precision_bits=PRECISION)
            v = reg_n3(Z, s, precision_bits=PRECISION)
            diffs.append(float(abs(v.value.value - target)))
            errs.append(v.quadrature_error)
        for d in diffs:
            assert d < 1e-6
        for k in range(len(diffs) - 1):
            assert diffs[k + 1] <= diffs[k] + errs[k] + errs[k + 1] + 1e-20
    _report("criterion 6 (eps -> 0 agreement)",
            f"deviations from pi^2/6 at bounds 0.3/0.1/0.03: "
            f"{[mp.nstr(d, 3) for d in diffs]} (monotone within error)")


def test_criterion_7_oracle_equivalence(z1_result, petras_result):
    z1v, _ = z1_result
    pv, _ = petras_result
    with workprec(PRECISION):
        # Totaro component: L = Li2(1)
        L = z1v.breakdown[0]["line_integral"]
        oracle = li2(mp.mpc(1))
        assert abs(L.value - oracle.value) <= 10 * max(L.radius, 1e-30) + oracle.radius
        # Petras components: Li2(1), 5 Li2(zeta5), 5 Li2(conj zeta5)
        zeta5 = mp.e ** (2j * mp.pi / 5)
        oracles = [li2(mp.mpc(1)).value, 5 * li2(zeta5).value,
                   5 * li2(mp.conj(zeta5)).value]
        got = [e["line_integral"] for e in pv.breakdown]
        for L, o in zip(got, oracles):
            assert abs(L.value - o) <= 10 * max(L.radius, 1e-30) + 1e-30
        # The open-curve fixture: the same orientation that fixes the Totaro
        # value at +pi^2/6 makes this line integral Li2(-1) = -pi^2/12
        Zm = load_fixture("z_minus1")
        s = make_schedule(0.3, 3, 0.5, PRECISION)
        vm = reg_n3(Zm, s, precision_bits=PRECISION)
        om = li2(mp.mpc(-1))
        assert abs(vm.value.value - om.value) <= \
            10 * max(vm.quadrature_error, 1e-30) + om.radius
        assert abs(abs(vm.value.value) - mp.pi ** 2 / 12) < 1e-10
    _report("criterion 7 (oracle equivalence)",
            "line integrals match Li2 oracles componentwise: Li2(1), "
            "5*Li2(zeta5), 5*Li2(conj zeta5), and Li2(-1) for the open curve")


def test_criterion_8_structural_property_suites():
    rng = random.Random(2024)
    with workprec(160):
        # boundary-squared facet identity on symbolic data
        for name in ("z1_totaro", "petras_zeta5", "mccarthy_counterexample"):
            assert boundary_squared_terms(load_fixture(name)) == {}
        t = RationalFunction.t(1)
        nonvac = Precycle(3, 2, [CurveComponent(3, (t, 2 * t, 1 - t), 1)], order=1)
        assert boundary_squared_terms(nonvac) == {}

        # divisor degree sum vanishes on 100 random rational functions
        for _ in range(100):
            def rand_poly():
                deg = rng.randint(0, 4)
                return Poly(1, [CyclotomicNumber.from_rational(rng.randint(-6, 6), 1)
                                for _ in range(deg + 1)])
            num, den = rand_poly(), rand_poly()
            if num.is_zero() or den.is_zero():
                continue
            f = RationalFunction(num, den)
            if f.is_constant():
                continue
            assert sum(p.multiplicity for p in f.divisor(160)) == 0

        # reciprocity product over boundaries of graph-type curves
        assert weil_symbol_product(load_fixture("graph_4_2")).is_one()
        built = 0
        while built < 20:
            vals = [rng.randint(-9, 9) for _ in range(4)]
            if len(set(vals)) != 4:
                continue
            f1 = (t - vals[0]) / (t - vals[1])
            f2 = (t - vals[2]) / (t - vals[3])
            W = Precycle(2, 1, [CurveComponent(2, (f1, f2), 1)], order=1)
            if not check_face_proper(W)["ok"]:
                continue
            assert weil_symbol_product(W).is_one()
            built += 1

        # normalization lands in the normalized profile and is idempotent
        W = Precycle(2, 1, [CurveComponent(2, ((t - 1) / (t - 2), 1 / t), 1)],
                     order=1)
        V = Precycle(3, 2, [CurveComponent(
            3, ((t - 1) / (t - 2), 1 / t, RationalFunction.from_rational(2, 1)), 1)],
            order=1)
        for Z in (W, V):
            Zn = normalize(Z)
            assert is_normalized(Zn)
            again = normalize(Zn)
            assert {c.key() for c in again.components} == \
                {c.key() for c in Zn.components}

        # dilogarithm functional equations on 100 random points
        checked = 0
        while checked < 100:
            z = mp.mpc(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            if abs(z) < 0.05 or abs(1 - z) < 0.05:
                continue
            if abs(z.imag) < 0.02 and (z.real <= 0 or z.real >= 1):
                continue
            a, b = li2(z), li2(1 - z)
            rhs = mp.pi ** 2 / 6 - mp.log(z) * mp.log(1 - z)
            assert abs(a.value + b.value - rhs) <= a.radius + b.radius + 1e-35
            w = 1 / z * mp.mpf("1.3")
            if abs(w) > 1.05 and not (abs(w.imag) < 0.02 and w.real > 0):
                c, d = li2(w), li2(1 / w)
                rhs2 = -mp.pi ** 2 / 6 - mp.log(-w) ** 2 / 2
                assert abs(c.value + d.value - rhs2) <= c.radius + d.radius + 1e-35
            checked += 1

        # schedule generator keeps the strict nesting inequalities
        for _ in range(50):
            s = make_schedule(rng.uniform(0.01, 2.0), rng.randint(1, 3),
                              rng.uniform(0.05, 0.95), 160)
            assert s.is_b_nested()
    _report("criterion 8 (structural suites)",
            "facet identity, divisor degree-zero x100, reciprocity products, "
            "normalization profile and idempotence, dilogarithm identities "
            "x100, schedule nesting x50")


def test_criterion_9_determinism(tmp_path, capsys):
    commands = [
        ["torsion", "--fixture", "z1_totaro", "--precision", "128", "--seed", "3"],
        ["regulator", "--fixture", "petras_zeta5", "--precision", "128",
         "--seed", "3"],
        ["admissible", "--fixture", "mccarthy_counterexample", "--eps", "0.2",
         "--equal-phase", "--precision", "128", "--seed", "3"],
        ["boundary", "--fixture", "graph_4_2", "--precision", "128",
         "--seed", "3"],
        ["check", "--fixture", "z_minus1", "--precision", "128", "--seed", "3"],
    ]

    def run_suite():
        chunks = []
        for argv in commands:
            code = cli_main(argv)
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)  # must be valid JSON
            chunks.append(out)
        return "".join(chunks)

    first = run_suite()
    second = run_suite()
    assert first == second
    _report("criterion 9 (determinism)",
            f"two identical-seed runs over all {len(commands)} fixtures "
            "produced bit-identical JSON reports")
