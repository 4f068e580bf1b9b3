import random
from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import (
    ChowregError,
    CyclotomicNumber,
    INF,
    Poly,
    PrecisionError,
    RationalFunction,
    TracedPath,
    fixture_names,
    join_coordinates,
    load_fixture,
    rf_arith,
    roots_numeric,
    workprec,
)
from chowreg.field import embed
from chowreg.funcfield import RFEvaluator, linear_factors


def rf(order=1):
    return RationalFunction.t(order)


def const(q, order=1):
    return RationalFunction.from_rational(Fraction(q), order)


def random_rf(rng, order=1, max_deg=3):
    def random_poly():
        deg = rng.randint(0, max_deg)
        coeffs = [CyclotomicNumber.from_rational(rng.randint(-6, 6), order)
                  for _ in range(deg + 1)]
        return Poly(order, coeffs)

    while True:
        num, den = random_poly(), random_poly()
        if num.is_zero() or den.is_zero():
            continue
        f = RationalFunction(num, den)
        if not f.is_constant():
            return f


def test_sub_self_is_zero():
    t = rf()
    assert rf_arith(t, t, "sub").is_zero()


def test_canonical_form():
    t = rf()
    f = 1 - 1 / t
    assert f.num.coeffs[-1].is_one() or f.den.coeffs[-1].is_one()
    assert f == (t - 1) / t
    assert f.den == t.num  # denominator is the monic polynomial t


def test_compose_inverse_of_join_solve():
    # 1/t composed with b(t-1)/(t-b) gives (t-b)/(b(t-1)); b = 3
    t = rf()
    b = const(3)
    g = b * (t - 1) / (t - b)
    got = rf_arith(1 / t, g, "compose")
    expected = (t - b) / (b * (t - 1))
    assert got == expected


def test_compose_requires_nonconstant():
    with pytest.raises(ChowregError):
        rf().compose(const(5))


def test_derivative_examples():
    t = rf()
    assert (t * t).derivative() == 2 * t
    assert ((t - 1) / t).derivative() == 1 / (t * t)
    assert const(9).derivative().is_zero()


def test_derivative_is_a_derivation():
    rng = random.Random(5)
    for _ in range(25):
        f, g = random_rf(rng), random_rf(rng)
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def divisor_as_dict(f, precision_bits=160):
    out = {}
    for pt in f.divisor(precision_bits):
        if pt.location is INF:
            key = "inf"
        elif pt.is_exact:
            key = ("e", pt.location.order, pt.location.coeffs)
        else:
            key = ("n", mp.nstr(pt.location.value, 12))
        out[key] = out.get(key, 0) + pt.multiplicity
    return {k: v for k, v in out.items() if v}


def test_divisor_of_t():
    d = divisor_as_dict(rf())
    assert d == {("e", 1, (Fraction(0),)): 1, "inf": -1}


def test_divisor_of_graph_function():
    t = rf()
    d = divisor_as_dict((t - 4) / (t - 2))
    assert d[("e", 1, (Fraction(4),))] == 1
    assert d[("e", 1, (Fraction(2),))] == -1
    assert len(d) == 2


def test_divisor_with_zeta_location():
    t = rf(5)
    z5 = RationalFunction.constant(CyclotomicNumber.zeta(5))
    f = 1 - z5 / t
    d = divisor_as_dict(f)
    assert d[("e", 5, CyclotomicNumber.zeta(5).coeffs)] == 1
    assert d[("e", 5, CyclotomicNumber.zero(5).coeffs)] == -1


def test_divisor_degree_sum_zero_random():
    rng = random.Random(23)
    with workprec(160):
        for _ in range(100):
            f = random_rf(rng, max_deg=4)
            total = sum(pt.multiplicity for pt in f.divisor(160))
            assert total == 0


def test_divisor_multiplicative():
    rng = random.Random(29)
    with workprec(160):
        for _ in range(20):
            f, g = random_rf(rng), random_rf(rng)
            left = {}
            for pt in f.divisor(160) + g.divisor(160):
                left.setdefault(_loc_key(pt), 0)
                left[_loc_key(pt)] += pt.multiplicity
            right = {}
            for pt in (f * g).divisor(160):
                right.setdefault(_loc_key(pt), 0)
                right[_loc_key(pt)] += pt.multiplicity
            left = {k: v for k, v in left.items() if v}
            right = {k: v for k, v in right.items() if v}
            assert _match_divisors(left, right)


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_one_probe_pass_finds_every_root_in_the_field(bits):
    # ``linear_factors`` proposes candidates from one numeric pass over the
    # whole polynomial; on every fixture coordinate it finds each zero and
    # pole in Q(zeta_N) exactly at every precision, so only t^2 + i, which
    # has no root in Q(i), is left as numeric clusters
    for name in fixture_names():
        for comp in load_fixture(name).components:
            for f in comp.coords:
                if f.is_constant():
                    continue
                with workprec(bits):
                    points = f.divisor(bits)
                assert sum(pt.multiplicity for pt in points) == 0
                for pt in points:
                    if pt.is_exact:
                        assert f.eval(pt.location) == (
                            INF if pt.multiplicity < 0
                            else CyclotomicNumber.zero(f.order))
                    else:
                        assert name == "totaro_s2_plus_i"
                        assert pt.factor.degree == 2


def test_one_probe_pass_finds_every_rational_linear_factor():
    # on products of rational linear factors with a cofactor free of
    # rational roots, ``linear_factors`` finds each linear factor with its
    # multiplicity and leaves the monic cofactor
    rng = random.Random(31)
    cofactors = ([-2, 0, 1], [1, 1, 1], [-3, 0, 0, 1], [1])
    for _ in range(40):
        roots = {}
        for _ in range(rng.randint(1, 4)):
            root = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            roots[root] = roots.get(root, 0) + rng.randint(1, 2)
        cofactor = Poly.from_rationals(1, rng.choice(cofactors))
        p = cofactor
        for root, mult in roots.items():
            for _ in range(mult):
                p = p * Poly.from_rationals(1, [-root, 1])
        found, rem = linear_factors(p)
        assert {r.as_rational(): m for r, m in found} == roots
        assert rem == cofactor.monic()


def _loc_key(pt):
    if pt.location is INF:
        return "inf"
    if pt.is_exact:
        return ("e", pt.location.order, pt.location.coeffs)
    return ("n", complex(pt.location.value))


def _match_divisors(a, b, tol=1e-25):
    # exact keys must match exactly; numeric keys match within distance
    for k, v in a.items():
        if k in b:
            if b[k] != v:
                return False
            continue
        if not (isinstance(k, tuple) and k[0] == "n"):
            return False
        hit = None
        for kb in b:
            if isinstance(kb, tuple) and kb[0] == "n" and abs(kb[1] - k[1]) < tol:
                hit = kb
                break
        if hit is None or b[hit] != v:
            return False
    return len(a) == len(b)


def test_eval_examples():
    t = rf()
    f = (t - 4) / (t - 2)
    assert f.eval(CyclotomicNumber.zero(1)) == Fraction(2)
    assert f.eval(INF) == Fraction(1)
    assert t.eval(INF) is INF


def test_eval_compose_consistency():
    rng = random.Random(31)
    for _ in range(20):
        f, g = random_rf(rng), random_rf(rng)
        a = CyclotomicNumber.from_rational(rng.randint(-5, 5), 1)
        inner = g.eval(a)
        if inner is INF:
            continue
        lhs = f.compose(g).eval(a)
        rhs = f.eval(inner)
        assert lhs == rhs


def test_join_examples():
    t = rf()
    assert join_coordinates(t, t) == (t * t) / (2 * t - 1)
    zero = RationalFunction.from_rational(0, 1)
    assert join_coordinates(zero, t).is_zero()
    with pytest.raises(ChowregError):
        join_coordinates(t, 1 - t)


def test_roots_numeric_simple():
    with workprec(128):
        p = Poly.from_rationals(1, [-1, 0, 1])  # t^2 - 1
        roots = sorted(roots_numeric(p, 128), key=lambda rm: float(rm[0].value.real))
        assert [m for _, m in roots] == [1, 1]
        assert abs(roots[0][0].value + 1) < 1e-30
        assert abs(roots[1][0].value - 1) < 1e-30


def test_roots_numeric_multiplicity():
    with workprec(128):
        p = Poly.from_rationals(1, [4, -4, 1])  # (t-2)^2
        roots = roots_numeric(p, 128)
        assert len(roots) == 1
        ball, mult = roots[0]
        assert mult == 2
        assert abs(ball.value - 2) < 1e-30


def test_roots_numeric_golden():
    with workprec(128):
        p = Poly.from_rationals(1, [-1, -1, 1])  # t^2 - t - 1
        roots = sorted(roots_numeric(p, 128), key=lambda rm: float(rm[0].value.real))
        assert abs(roots[1][0].value - (1 + mp.sqrt(5)) / 2) < 1e-30
        assert abs(roots[0][0].value - (1 - mp.sqrt(5)) / 2) < 1e-30


def _zero_seeded_horner(coeffs, t):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_horner_seed_is_bit_identical_to_zero_seed(bits):
    # num, den, num' and den' of every coordinate, and each of their
    # truncations (the empty list among them), so that every coefficient,
    # the inexact embeddings of zeta included, serves once as the seed
    points = [mp.mpc("0.3", "0.7"), mp.mpc("-2.5", "1.25"), mp.mpc("1e3", "-1e-3"),
              mp.mpc("1e-20", "3")]
    with workprec(bits):
        for name in fixture_names():
            for comp in load_fixture(name).components:
                for f in comp.coords:
                    ev = RFEvaluator(f, bits)
                    for coeffs in (ev.nc, ev.dc, ev.npc, ev.dpc):
                        for k in range(len(coeffs) + 1):
                            for t in points:
                                got = RFEvaluator._horner(coeffs[:k], t)
                                want = _zero_seeded_horner(coeffs[:k], t)
                                assert got._mpc_ == want._mpc_


def _moebius_coordinates():
    # the first coordinates of the Totaro, Petras and McCarthy fixtures
    # (den = 1 for i*t - 1) and one whose num has no unit coefficient
    one5 = RationalFunction.from_rational(1, 5)
    zeta = RationalFunction.constant(CyclotomicNumber.zeta(5))
    i = RationalFunction.constant(CyclotomicNumber.zeta(4))
    return [1 - 1 / rf(), one5 - zeta / rf(5), one5 - zeta ** 4 / rf(5),
            i * rf(4) - 1, (2 * rf() + 3) / (5 * rf())]


def _linear_coeffs(p, prec):
    cs = [embed(c, prec).value for c in p.coeffs]
    return cs + [mp.mpc(0)] * (2 - len(cs))


def _count_calls(monkeypatch, *names):
    calls = {name: 0 for name in names}

    def counting(name, fn):
        def wrapper(self, *args):
            calls[name] += 1
            return fn(self, *args)
        return wrapper

    for name in names:
        monkeypatch.setattr(RFEvaluator, name,
                            counting(name, getattr(RFEvaluator, name)))
    return calls


@pytest.mark.parametrize("bits", [53, 128, 256])
def test_solve_on_moebius_lands_in_one_step(bits, monkeypatch):
    # a Moebius path's solve_at is the exact inverse f^-1(w), evaluated to
    # rounding, with no residual or Newton call; it passes on num(t) and
    # den(t) by Horner, which the resolution check and dlog reuse
    calls = _count_calls(monkeypatch, "residual", "newton_step")
    direction = mp.expj(mp.pi - mp.mpf("0.1"))
    for f in _moebius_coordinates():
        assert f.degree_map == 1

        def closed_form(w, prec):
            with workprec(prec):
                n0, n1 = _linear_coeffs(f.num, prec)
                d0, d1 = _linear_coeffs(f.den, prec)
                return (w * d0 - n0) / (n1 - w * d1)

        for sigma in (56, -56):
            with workprec(bits):
                ev = RFEvaluator(f, bits)
                path = TracedPath(1, direction, ev)
                w = mp.exp(sigma) * direction
                t = f.inverse().evaluator(bits).value(w)
                n = RFEvaluator._horner(ev.nc, t)
                d = RFEvaluator._horner(ev.dc, t)
                if ev.is_resolved(t, n, d):
                    assert path.solve_at(sigma) == (t, n, d)
                    assert ev.dlog(t, n, d) == ev.dlog(t)
                else:  # at 53 bits t = 1 + w rounds onto the zero 1
                    assert bits == 53
                    with pytest.raises(PrecisionError):
                        path.solve_at(sigma)
            with workprec(bits + 64):
                exact = closed_form(w, bits + 64)
                assert abs(t - exact) <= mp.mpf(2) ** (4 - bits) * abs(exact)
    assert calls == {"residual": 0, "newton_step": 0}


@pytest.mark.parametrize("start", [mp.mpc("0.5", "0.25"), None])
def test_solve_at_the_value_at_infinity_is_a_critical_point(start):
    # w = f(oo) makes the slope n1 - w d1 of num - w den exactly 0, and the
    # denominator of f^-1 vanishes there: the level set has no finite point.
    # Newton from a start raises ZeroDivisionError; a Moebius path's
    # solve_at (no start) raises a ChowregError
    for f in (1 - 1 / rf(), (2 * rf() + 3) / (4 * rf())):
        w = embed(f.eval(INF), 128).value
        with workprec(128):
            ev = RFEvaluator(f, 128)
            assert RFEvaluator._horner(f.inverse().evaluator(128).dc, w) == 0
            if start is None:
                # w = e^0 direction, exactly
                with pytest.raises(ChowregError, match="critical point"):
                    TracedPath(1, w, ev).solve_at(0)
            else:
                with pytest.raises(ZeroDivisionError):
                    ev.solve(start, w, mp.mpf(2) ** -112, 40)


def test_inverse_composes_to_the_identity_on_every_moebius_coordinate():
    # f o f^-1 = t = f^-1 o f exactly, for each Moebius coordinate of every
    # fixture; the inverse is built once, and a function of another degree
    # has none
    seen = 0
    for name in fixture_names():
        for comp in load_fixture(name).components:
            for f in comp.coords:
                if f.degree_map != 1:
                    with pytest.raises(ChowregError, match="inverse"):
                        f.inverse()
                    continue
                t = RationalFunction.t(f.order)
                g = f.inverse()
                assert f.compose(g) == t and g.compose(f) == t
                assert f.inverse() is g
                seen += 1
    assert seen >= 8


def test_resolved_value_refuses_points_within_rounding_of_a_zero_or_pole():
    # 1 - 1/t = (t - 1)/t: the bound on num(t) and den(t) is relative to the
    # size of their terms, so a point next to the zero 1 is refused while a
    # tiny point next to the pole 0 is resolved
    bits = 80
    with workprec(bits):
        ev = RFEvaluator(1 - 1 / rf(), bits)
        for t in (mp.mpc(1), mp.mpc(0), mp.mpc(1, mp.mpf(2) ** -90)):
            assert ev.is_resolved(t) is False
        for t in (mp.mpc(1, mp.mpf(2) ** -60), mp.mpc(mp.mpf(2) ** -200, 1e-70)):
            assert ev.is_resolved(t) is True
