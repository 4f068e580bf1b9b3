"""Perturbed logarithm branches and the ball-valued dilogarithm.

``log_eps`` is the branch of log with argument in (-pi-eps, pi-eps], i.e. the
cut rotated clockwise by the phase eps.  ``li2`` is evaluated from scratch
(power series for |z| <= 1/2, inversion for |z| > 1.4, reflection for
|1 - z| <= 1/2, else the Bernoulli series in u = -log(1 - z); Zagier 2007).
One fixed-point kernel on Python ints, ``_series``, sums both series 16 bits
above the caller's precision from coefficient tables built once per
precision; the radius adds its bound, (n + 4) 2^(4 - wp) for n terms at wp
bits, scaled as in ``_li2_point``, to 8 ulp of the value.  The regulator's
closed-form line integrals on Moebius paths are sums of its values, so the
tests check it against mpmath's independent ``polylog``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import to_fixed

from .errors import ChowregError, ConvergenceError, PrecisionError
from .numeric import ComplexApprox, ulp_radius

# bits above the caller's precision at which li2 sums its series
_GUARD = 16


@dataclass(frozen=True)
class BranchSpec:
    """Branch of log with argument range (-pi-phase, pi-phase], half-open."""

    phase: object = 0.0

    def __post_init__(self):
        # every comparison with nan is false, so it fails the range test
        if not 0 <= mp.mpf(self.phase) < mp.inf:
            raise ChowregError(
                f"branch phase must be finite and >= 0, got {self.phase!r}")


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


def _terms(log2_y, wp):
    """Terms n of a series sum_j a_j y^j with |a_j| <= 8 and |y| = 2^log2_y
    <= 1/2 whose tail 8 |y|^n / (1 - |y|) is below 2^-wp; the extra term
    covers the float rounding of the count."""
    return math.ceil((wp + 4) / -log2_y) + 1


# the tables below are made once per working precision, of which a process
# uses a few
@functools.lru_cache(maxsize=32)
def _inverse_squares(wp):
    """1/(j+1)^2, j = 0, 1, ..., floored to wp-bit fixed point: the power
    series coefficients, enough of them for |y| <= 1/2."""
    one = 1 << wp
    return tuple(one // (k * k)
                 for k in range(1, _terms(math.log2(0.5001), wp) + 1))


@functools.lru_cache(maxsize=32)
def _bernoulli_coefficients(wp):
    """c_j = B_2j (2 pi)^(2j+1) / (2j+1)!, j = 0, 1, ..., floored to wp-bit
    fixed point, enough of them for |v| <= 0.4.  Normalized so that
    |c_j| <= 4 pi zeta(2) / 3 < 7: the fixed-point error of c_j is not
    multiplied by a large power of u."""
    with mp.workprec(wp + 16):
        two_pi = 2 * mp.pi
        return tuple(
            to_fixed((mp.bernoulli(2 * j) * two_pi ** (2 * j + 1)
                      / mp.factorial(2 * j + 1))._mpf_, wp)
            for j in range(_terms(2 * math.log2(0.4), wp)))


@functools.lru_cache(maxsize=32)
def _pi2_6(prec):
    with mp.workprec(prec):
        return mp.pi ** 2 / 6


def _series(y, coefficients, wp):
    """(S, n): S = sum_{j<n} a_j y^j by Horner's rule on wp-bit fixed-point
    Python ints, for |y| <= 1/2 and a table of |a_j| <= 8 each within one
    unit of 2^wp a_j.

    n is fixed beforehand from log2|y| (``_terms``), so no term is tested.
    |S - sum_j a_j y^j| <= (n + 4) 2^(4 - wp): the floored coefficients
    cost 2 units of 2^-wp, the floored Horner steps 2 sqrt 2, the tail 1,
    rounding S to wp bits 8 and y floored to fixed point at most
    sqrt 2 * 8 / (1 - |y|)^2 < 46.
    """
    yr, yi = to_fixed(y.real._mpf_, wp), to_fixed(y.imag._mpf_, wp)
    norm = yr * yr + yi * yi
    n = _terms(math.log2(norm) / 2 - wp, wp) if norm else 1
    if n > len(coefficients):
        raise ConvergenceError("dilogarithm series argument outside its region")
    hr, hi = coefficients[n - 1], 0
    for a in reversed(coefficients[:n - 1]):
        hr, hi = a + ((hr * yr - hi * yi) >> wp), (hr * yi + hi * yr) >> wp
    return mp.mpc(mp.mpf((hr, -wp)), mp.mpf((hi, -wp))), n


def _li2_point(z, wp):
    """(Li2(z), error bound) at the working precision wp, for z off 0 and 1.

    A power series sum with n terms is within (n + 4) 2^(4 - wp) |z| of Li2,
    ``_series``'s bound times |z| with the rounding of the product; a
    Bernoulli series sum within (n + 4) 2^(4 - wp) (1 + |u|), the bound
    times |v| < 0.4 with the rounding of u, v and the products.  What the
    inversion and reflection formulas round at wp sits 16 bits below the
    8 ulp at the caller's precision that ``li2`` adds.
    """
    r = abs(complex(z))
    if r <= 0.5:
        # sum_k z^k / k^2 = z sum_j z^j / (j+1)^2
        s, n = _series(z, _inverse_squares(wp), wp)
        return z * s, (n + 4) * 2.0 ** (4 - wp) * r
    if r > 1.4:
        # inversion: Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2 / 2
        inner, err = _li2_point(1 / z, wp)
        return -inner - _pi2_6(wp) - mp.log(-z) ** 2 / 2, err
    if abs(complex(1 - z)) <= 0.5:
        # reflection, where -log(1 - z) leaves the Bernoulli series region:
        # Li2(z) = pi^2/6 - log(z) log(1 - z) - Li2(1 - z)
        inner, err = _li2_point(1 - z, wp)
        return _pi2_6(wp) - mp.log(z) * mp.log(1 - z) - inner, err
    # Bernoulli series in u = -log(1 - z), |u| < 2.46 here:
    # Li2(z) = sum_n B_n u^(n+1) / (n+1)! = -u^2/4 + v sum_j c_j v^(2j)
    # with v = u / 2 pi
    u = -mp.log(1 - z)
    v = u / (2 * mp.pi)
    s, n = _series(v * v, _bernoulli_coefficients(wp), wp)
    return v * s - u * u / 4, (n + 4) * 2.0 ** (4 - wp) * (1 + abs(complex(u)))


def li2(z):
    """Principal-branch dilogarithm, cut along [1, oo).

    On the cut the value is the limit from below (principal log of 1-z picks
    arg = pi for negative reals), which is the convention the real-valued
    cycle totals require.  A ball centred at 0 or 1 with radius r < 1/2 maps
    to the bound of Li2 on its disc; a larger one, or any other ball that
    meets the cut, across which Li2 jumps by 2 pi i log z, PrecisionError.
    """
    zb = _as_ball(z)
    zc, rad = zb.value, zb.radius
    prec = mp.mp.prec
    if zc == 0 or zc == 1:
        if rad >= 0.5:
            raise PrecisionError("li2 of a ball of radius >= 1/2 around 0 or 1")
        if zc == 0:
            # |Li2(w)| <= sum_k |w|^k on |w| <= r
            return ComplexApprox(mp.mpc(0), rad / (1 - rad) * 1.0000001)
        # |Li2(w) - pi^2/6| = |log w log(1 - w) + Li2(1 - w)|
        #                   <= r (1 + pi - log r) / (1 - r) on |w - 1| <= r
        v = _pi2_6(prec)
        tail = rad * (1 + math.pi - math.log(rad)) / (1 - rad) if rad else 0.0
        return ComplexApprox(mp.mpc(v), tail * 1.0000001 + ulp_radius(v))
    if rad and rad >= (abs(zc.imag) if zc.real >= 1 else abs(1 - zc)):
        raise PrecisionError("li2 of a ball that meets its cut [1, oo)")
    wp = prec + _GUARD
    with mp.workprec(wp):
        value, tail = _li2_point(zc, wp)
    value = +value
    # |dLi2/dz| = |log(1-z)/z| bounds input-radius propagation off the cut
    if rad:
        dist1 = max(abs(complex(1 - zc)) - rad, 1e-300)
        tail += rad * (abs(math.log(dist1)) + 4.0) / max(
            abs(complex(zc)) - rad, 1e-300)
    ulp = (abs(complex(value)) + 1e-300) * 2.0 ** (2 - prec)
    return ComplexApprox(value, tail * 1.0000001 + 8 * ulp)
