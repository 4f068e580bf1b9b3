import os
import random
import subprocess
import sys

import mpmath as mp
import pytest

from chowreg import (BranchSpec, ChowregError, ComplexApprox, PrecisionError,
                     li2, log_eps, pi_const, workprec)
from chowreg import special


def test_log_eps_of_one():
    with workprec(128):
        assert log_eps(mp.mpc(1), BranchSpec(mp.mpf("0.3"))).value == 0


def test_log_eps_minus_one_perturbed():
    with workprec(128):
        v = log_eps(mp.mpc(-1), BranchSpec(mp.mpf("0.1")))
        assert abs(v.value - mp.mpc(0, -mp.pi)) < 1e-30


def test_log_eps_minus_one_principal():
    with workprec(128):
        v = log_eps(mp.mpc(-1), BranchSpec(0))
        assert abs(v.value - mp.mpc(0, mp.pi)) < 1e-30


def test_log_eps_branch_difference_lattice():
    rng = random.Random(3)
    with workprec(128):
        two_pi = 2 * mp.pi
        for _ in range(60):
            z = mp.mpc(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(z) < 0.1:
                continue
            e1 = mp.mpf(rng.uniform(0, 0.4))
            e2 = mp.mpf(rng.uniform(0, 0.4))
            d = (log_eps(z, BranchSpec(e1)).value - log_eps(z, BranchSpec(e2)).value)
            k = d.imag / two_pi
            assert abs(k - mp.nint(k)) < 1e-25
            assert int(mp.nint(k)) in (-1, 0, 1)


@pytest.mark.parametrize("phase", ["-0.1", "nan", "inf"])
def test_branch_phase_must_be_finite_and_non_negative(phase):
    # a negative phase has no branch, nan compares false with every bound,
    # and an infinite one turns the cut by an undefined angle: each is
    # refused as a ChowregError
    with workprec(128):
        with pytest.raises(ChowregError):
            log_eps(2, mp.mpf(phase))


def test_log_eps_straddle_rejected():
    with workprec(128):
        fuzzy = ComplexApprox(mp.mpc(-1, 0), 0.5)
        with pytest.raises(PrecisionError):
            log_eps(fuzzy, BranchSpec(mp.mpf("1e-10")))


def test_li2_special_values():
    with workprec(256):
        assert abs(li2(mp.mpc(1)).value - mp.pi ** 2 / 6) < 1e-70
        assert li2(mp.mpc(0)).value == 0
        assert abs(li2(mp.mpc(-1)).value + mp.pi ** 2 / 12) < 1e-70


def test_li2_matches_independent_series():
    # brute-force partial sums at small |z| pin the series region
    with workprec(128):
        z = mp.mpc("0.3", "-0.2")
        brute = sum(z ** k / k ** 2 for k in range(1, 400))
        assert abs(li2(z).value - brute) < 1e-35


def test_li2_reflection_identity():
    rng = random.Random(9)
    with workprec(192):
        checked = 0
        while checked < 100:
            z = mp.mpc(rng.uniform(-0.95, 0.95), rng.uniform(-0.95, 0.95))
            # stay off both log cuts: z not near (-oo, 0], 1-z not near (-oo, 0]
            if abs(z) < 0.05 or abs(1 - z) < 0.05:
                continue
            if abs(z.imag) < 0.02 and (z.real <= 0 or z.real >= 1):
                continue
            a = li2(z)
            b = li2(1 - z)
            rhs = mp.pi ** 2 / 6 - mp.log(z) * mp.log(1 - z)
            assert abs(a.value + b.value - rhs) <= a.radius + b.radius + 1e-40
            checked += 1


def test_li2_inversion_identity():
    rng = random.Random(10)
    with workprec(192):
        checked = 0
        while checked < 100:
            z = mp.mpc(rng.uniform(-4, 4), rng.uniform(-4, 4))
            if abs(z) < 1.1:
                continue
            if abs(z.imag) < 0.02 and z.real > 0:
                continue  # keep off the [1, oo) cut
            a = li2(z)
            b = li2(1 / z)
            rhs = -mp.pi ** 2 / 6 - mp.log(-z) ** 2 / 2
            assert abs(a.value + b.value - rhs) <= a.radius + b.radius + 1e-40
            checked += 1


def test_li2_cross_check_against_mpmath():
    rng = random.Random(12)
    with workprec(160):
        for _ in range(40):
            z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.05 or (abs(z.imag) < 1e-3 and z.real >= 1):
                continue
            mine = li2(z)
            ref = mp.polylog(2, z)
            assert abs(mine.value - ref) <= mine.radius + 1e-35


def test_pi_const():
    with workprec(53):
        assert str(mp.nstr(pi_const(53).value.real, 16)) == "3.141592653589793"
    with workprec(256):
        ratio = li2(mp.mpc(1)).value / pi_const(256).value ** 2
        assert abs(ratio - mp.mpf(1) / 6) < 1e-15
        a = pi_const(256).value.real
    with workprec(128):
        b = pi_const(128).value.real
        assert abs(a - b) < mp.mpf(2) ** -126


@pytest.mark.parametrize("bits", [96, 128, 256])
def test_li2_near_one(bits):
    # where -log(1 - z) leaves the Bernoulli series region the reflection
    # Li2(z) = pi^2/6 - log z log(1 - z) - Li2(1 - z) takes over: points
    # approaching 1 from several directions, the cut's lower edge among
    # them, hold mpmath's value at twice the precision in their radius
    with workprec(bits):
        points = [mp.mpc("0.999"), mp.mpc(1, "0.001"), 1 - mp.mpf("1e-7")]
        for h in ("0.4", "1e-3", "1e-9", "1e-20"):
            for k in range(8):
                points.append(1 + mp.mpf(h) * mp.expjpi(mp.mpf(k) / 4))
        balls = [li2(z) for z in points]
    with workprec(2 * bits):
        for z, ball in zip(points, balls):
            # on [1, oo) li2 is the limit from below
            below = mp.mpc(z.real, -mp.mpf(2) ** (-4 * bits)) if (
                z.imag == 0 and z.real > 1) else z
            err = abs(ball.value - mp.polylog(2, below))
            assert err <= ball.radius
            assert ball.radius < 2.0 ** (16 - bits)


@pytest.mark.parametrize("r", ["1e-20", "1e-3", "0.1", "0.4"])
def test_li2_ball_centred_at_one(r):
    # reflection: |Li2(w) - pi^2/6| <= r (1 + pi - log r) / (1 - r) on the
    # disc; w on its rim, the cut's lower edge among them, must be inside
    with workprec(128):
        ball = li2(ComplexApprox(mp.mpc(1), float(r)))
        rim = [1 + mp.mpf(r) * mp.expjpi(mp.mpf(k) / 4) for k in range(8)]
    with workprec(256):
        assert abs(ball.value - mp.pi ** 2 / 6) <= ball.radius
        for w in rim:
            below = mp.mpc(w.real, -mp.mpf(2) ** -600) if w.imag == 0 else w
            assert abs(ball.value - mp.polylog(2, below)) <= ball.radius


@pytest.mark.parametrize("r", ["1e-20", "1e-3", "0.1", "0.4"])
def test_li2_ball_centred_at_zero(r):
    # |Li2(w)| <= r / (1 - r) on |w| <= r, which exceeds Li2(r) > r
    with workprec(128):
        ball = li2(ComplexApprox(mp.mpc(0), float(r)))
    with workprec(256):
        for w in (mp.mpf(r), -mp.mpf(r), mp.mpc(0, r), mp.mpc(0, -mp.mpf(r))):
            assert abs(ball.value - mp.polylog(2, w)) <= ball.radius


@pytest.mark.parametrize("ra, rb", [(0.0, 0.0), (1e-20, 0.0), (1e-3, 1e-2),
                                    (0.0, 0.5)])
def test_ball_division_and_subtraction_hold_every_point(ra, rb):
    # every point p of the ball A and q of B maps inside the balls A / B,
    # 3 / B, A - B, 3 - B and -A: points on the centres, half-way out and
    # just inside the rims, in eight directions
    with workprec(128):
        a = ComplexApprox(mp.mpc("0.3", "-1.7"), ra)
        b = ComplexApprox(mp.mpc("-2.1", "0.9"), rb)
        balls = [a / b, 3 / b, a - b, 3 - b, -a]
    with workprec(256):
        units = [mp.mpf(s) * mp.expjpi(mp.mpf(k) / 4)
                 for s in (0, 0.5, 0.999) for k in range(8)]
        for p in (a.value + ra * u for u in units):
            for q in (b.value + rb * u for u in units):
                for ball, ref in zip(balls, (p / q, 3 / q, p - q, 3 - q, -p)):
                    assert abs(ball.value - ref) <= ball.radius


def test_ball_division_by_a_ball_holding_zero_is_refused():
    with workprec(128):
        for den in (ComplexApprox(mp.mpc(0), 0.0),
                    ComplexApprox(mp.mpc("0.1", "0.1"), 0.2)):
            with pytest.raises(PrecisionError):
                ComplexApprox(mp.mpc(1), 0.0) / den
            with pytest.raises(PrecisionError):
                1 / den


@pytest.mark.parametrize("centre", [0, 1])
@pytest.mark.parametrize("r", [0.5, 0.9])
def test_li2_wide_ball_at_zero_or_one_is_refused(centre, r):
    with workprec(128):
        with pytest.raises(PrecisionError):
            li2(ComplexApprox(mp.mpc(centre), r))


def test_li2_ball_meeting_its_cut_is_refused():
    # Li2 jumps by 2 pi i log x across its cut [1, oo): Li2(2 + 0.05i) lies
    # 4.36 from Li2(2), far outside any derivative bound, so a ball of
    # nonzero radius that meets the cut has no value.  A point on the cut
    # keeps its limit from below, and a ball clear of the cut is a value
    with workprec(128):
        for z in (2, mp.mpc(3, "0.05"), mp.mpc("0.95", "0.01")):
            with pytest.raises(PrecisionError, match="cut"):
                li2(ComplexApprox(mp.mpc(z), 0.1))
        clear = li2(ComplexApprox(mp.mpc(2, "0.2"), 0.1))
        for w in (mp.mpc(2, "0.11"), mp.mpc("2.1", "0.2"), mp.mpc(2, "0.29")):
            assert abs(clear.value - mp.polylog(2, w)) <= clear.radius
        point = li2(mp.mpc(2))
        assert abs(point.value - (mp.pi ** 2 / 4 - 1j * mp.pi * mp.log(2))) \
            <= point.radius


def _sweep_points():
    points = []
    for k in range(16):
        e = mp.expjpi(mp.mpf(k) / 8)
        # the branch boundaries |z| = 1/2, |z| = 1.4 and |1 - z| = 1/2
        points += [e / 2, mp.mpf("1.4") * e, 1 + e / 2]
    for n in (5, 7, 8, 12):
        points += [mp.expjpi(mp.mpf(2 * k) / n) for k in range(1, n)]
    # arguments the Totaro and Petras closed forms reach: |z| about 2e24
    # (inversion) and |1 - z| about 5e-25 (reflection)
    points += [mp.mpc("2.0681724145479291525e+24", "-3.1257368885485189043e+23"),
               mp.mpc("3.4182517978495814565e+23", "-2.0635394335283060237e+24"),
               1 - mp.mpc("-4.7272086102961893299e-25", "7.1444770412416447335e-26"),
               1 - mp.mpc("-4.780228886355455764e-25", "7.9677859155434486663e-27")]
    return points


@pytest.mark.parametrize("bits", [53, 64, 96, 144, 256, 512])
def test_li2_precision_sweep(bits):
    # every branch and branch boundary, at each precision, against mpmath's
    # polylog at twice the precision
    with workprec(bits):
        points = [+z for z in _sweep_points()]
        balls = [li2(z) for z in points]
    with workprec(2 * bits):
        for z, ball in zip(points, balls):
            # on [1, oo) li2 is the limit from below
            below = mp.mpc(z.real, -mp.mpf(2) ** (-4 * bits)) if (
                z.imag == 0 and z.real > 1) else z
            assert abs(ball.value - mp.polylog(2, below)) <= ball.radius
            assert ball.radius < 2.0 ** (16 - bits)


def test_li2_table_is_keyed_by_precision_and_built_once(monkeypatch):
    calls = []
    bernoulli = mp.bernoulli
    monkeypatch.setattr(mp, "bernoulli", lambda n: calls.append(n) or bernoulli(n))
    special._bernoulli_coefficients.cache_clear()
    with workprec(256):
        z5 = mp.expjpi(mp.mpf(2) / 5)
        points = [z5, mp.conj(z5), mp.mpc("-0.8", "0.6"), mp.mpc("1.2", 1)]
        first = [li2(z) for z in points]
    assert calls
    with workprec(128):
        li2(z5)
    calls.clear()
    with workprec(256):
        again = [li2(z) for z in points]
    assert not calls
    for a, b in zip(first, again):
        assert a.value == b.value and a.radius == b.radius


def test_import_builds_no_table():
    code = ("import mpmath as mp\n"
            "calls = []\n"
            "mp.bernoulli = lambda n: calls.append(n)\n"
            "import chowreg.special as s\n"
            "assert not calls\n"
            "for f in (s._bernoulli_coefficients, s._inverse_squares, s._pi2_6):\n"
            "    assert f.cache_info().currsize == 0\n")
    src = os.path.dirname(os.path.dirname(special.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
