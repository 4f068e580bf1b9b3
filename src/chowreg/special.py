"""Perturbed logarithm branches and the ball-valued dilogarithm.

``log_eps`` is the branch of log with argument in (-pi-eps, pi-eps], i.e. the
cut rotated clockwise by the phase eps.  ``li2`` is evaluated from scratch
(power series, Bernoulli series in -log(1-z), and the inversion and
reflection formulas) rather than delegated to a library routine, and returns
a ball whose radius bounds its truncation and rounding.  The regulator's
closed-form line integrals on Moebius paths are sums of its values, so the
tests check it against mpmath's independent ``polylog``.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .errors import ConvergenceError, PrecisionError
from .numeric import ComplexApprox, ulp_radius


@dataclass(frozen=True)
class BranchSpec:
    """Branch of log with argument range (-pi-phase, pi-phase], half-open."""

    phase: object = 0.0

    def __post_init__(self):
        if mp.mpf(self.phase) < 0:
            raise ValueError("branch phase must be >= 0")


def _as_ball(z):
    if isinstance(z, ComplexApprox):
        return z
    return ComplexApprox(z, 0.0)


def log_eps(z, branch=None):
    """log z with argument in (-pi-eps, pi-eps].

    Raises PrecisionError when the ball around z straddles 0 or the rotated
    cut, since the branch value would then be ambiguous.
    """
    if branch is None:
        branch = BranchSpec(0.0)
    if not isinstance(branch, BranchSpec):
        branch = BranchSpec(branch)
    zb = _as_ball(z)
    eps = mp.mpf(branch.phase)
    mag = zb.abs_lower()
    if mag <= 0.0:
        raise PrecisionError("log_eps of a value whose ball contains zero")
    theta = mp.arg(zb.value)
    # principal arg lies in (-pi, pi]; rotate into (-pi-eps, pi-eps]
    if theta > mp.pi - eps:
        theta_branch = theta - 2 * mp.pi
        dist_to_cut = theta - (mp.pi - eps)
    else:
        theta_branch = theta
        # the cut ray is seen at angle pi-eps from above and -pi-eps from below
        dist_to_cut = min((mp.pi - eps) - theta, theta + mp.pi + eps)
    if zb.radius > 0:
        ang = float(dist_to_cut)
        if zb.radius >= 0.5 * float(zb.abs_lower()) * min(ang, 1.0):
            raise PrecisionError(
                "value straddles the log branch cut at this phase; "
                "retry with a different phase or higher precision"
            )
    value = mp.mpc(mp.log(abs(zb.value)), theta_branch)
    rad = 2.0 * zb.radius / float(mag) + ulp_radius(value)
    if zb.radius == 0.0:
        rad = ulp_radius(value)
        if zb.value == 1:
            rad = 0.0
    return ComplexApprox(value, rad)


def _li2_series(z):
    """Power series sum z^k/k^2, |z| <= 0.5; returns (value, tail_bound)."""
    tol = mp.mpf(2) ** (-mp.mp.prec - 8)
    total = mp.mpc(0)
    term = mp.mpc(z)
    k = 1
    while True:
        add = term / k ** 2
        total += add
        if abs(add) < tol * (1 + abs(total)):
            break
        k += 1
        term *= z
        if k > 100000:
            raise ConvergenceError("dilogarithm series did not converge")
    r = abs(mp.mpc(z))
    tail = float(abs(add)) / max(1e-300, float(1 - r))
    return total, tail


def _li2_bernoulli(z):
    """Series in u = -log(1-z); converges for |u| < 2*pi."""
    u = -mp.log(1 - mp.mpc(z))
    if abs(u) >= 2 * mp.pi * mp.mpf("0.95"):
        raise ConvergenceError("argument outside the Bernoulli series region")
    tol = mp.mpf(2) ** (-mp.mp.prec - 8)
    total = mp.mpc(0)
    upow = mp.mpc(u)
    fact = mp.mpf(1)
    k = 0
    last = mp.mpf("inf")
    while True:
        b = mp.bernoulli(k)
        term = b * upow / (fact * (k + 1))
        total += term
        t = abs(term)
        # odd Bernoulli numbers beyond B_1 vanish; only test on live terms
        if k > 4 and k % 2 == 0 and t < tol * (1 + abs(total)):
            break
        if k > 8 and k % 2 == 0 and t > last * 4:
            raise ConvergenceError("Bernoulli dilogarithm series diverging")
        if t:
            last = t
        k += 1
        upow *= u
        fact *= k
        if k > 8 * mp.mp.prec:
            raise ConvergenceError("Bernoulli dilogarithm series too slow")
    q = float(abs(u) / (2 * mp.pi))
    tail = 4.0 * float(t) * q / max(1e-12, 1 - q)
    return total, tail


def li2(z):
    """Principal-branch dilogarithm, cut along [1, oo).

    On the cut the value is the limit from below (principal log of 1-z picks
    arg = pi for negative reals), which is the convention the real-valued
    cycle totals require.
    """
    zb = _as_ball(z)
    zc = zb.value
    if zc == 0:
        return ComplexApprox(mp.mpc(0), zb.radius)
    if zc == 1 and zb.radius == 0.0:
        v = mp.pi ** 2 / 6
        return ComplexApprox(mp.mpc(v), ulp_radius(v))
    r = abs(zc)
    if r <= 0.5:
        value, tail = _li2_series(zc)
    elif r > mp.mpf("1.4"):
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        inner = li2(ComplexApprox(1 / zc, 0.0))
        lg = mp.log(-zc)
        value = -inner.value - mp.pi ** 2 / 6 - lg ** 2 / 2
        tail = inner.radius
    elif abs(1 - zc) <= 0.5:
        # reflection, where -log(1 - z) leaves the Bernoulli region:
        # Li2(z) = pi^2/6 - log(z) log(1 - z) - Li2(1 - z)
        inner, tail = _li2_series(1 - zc)
        value = mp.pi ** 2 / 6 - mp.log(zc) * mp.log(1 - zc) - inner
    else:
        value, tail = _li2_bernoulli(zc)
    # |dLi2/dz| = |log(1-z)/z| bounds input-radius propagation off the cut
    if zb.radius:
        dist1 = max(float(abs(1 - zc)) - zb.radius, 1e-300)
        deriv = (abs(float(mp.log(dist1))) + 4.0) / max(float(r) - zb.radius, 1e-300)
        tail += deriv * zb.radius
    rad = float(tail) * 1.0000001 + 8 * ulp_radius(value)
    return ComplexApprox(value, rad)
