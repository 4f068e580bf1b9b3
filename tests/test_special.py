import random

import mpmath as mp
import pytest

from chowreg import BranchSpec, ComplexApprox, PrecisionError, li2, log_eps, pi_const, workprec


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
