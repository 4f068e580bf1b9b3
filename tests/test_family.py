"""The cyclotomic dilogarithm family Z_{N,k} = (1 - zeta^k/t ; 1 - t ; 1/t^N)
over Q(zeta_N): regulator N Li_2(zeta^k), with no free parameter.  The zero
zeta^k of the first coordinate moves around the cut rays with k/N, close to
the direction -1 for (7, 3) and (12, 5)."""

from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import regulator, torsion_order, workprec
from chowreg.fixtures import dilog_cycle, dilog_pair

BITS = 128
ORACLE_GUARD_BITS = 64


@pytest.mark.parametrize("N, k", [
    (3, 1), (4, 1), (5, 2), (6, 1), (7, 2), (7, 3), (8, 1), (8, 3), (9, 4),
    (10, 3), (12, 1), (12, 5),
])
def test_dilog_member_matches_li2_and_cl2(N, k):
    _member_holds_li2_and_cl2(N, k, BITS)


def _member_holds_li2_and_cl2(N, k, bits):
    with workprec(bits):
        v = regulator(dilog_cycle(N, k), precision_bits=bits)
    with workprec(bits + ORACLE_GUARD_BITS):
        value = mp.mpc(v.value.value)
        li2 = N * mp.polylog(2, mp.expjpi(mp.mpf(2 * k) / N))
        cl2 = N * mp.clsin(2, 2 * mp.pi * k / N)
        assert abs(value.real - li2.real) <= v.value.radius
        assert abs(value.imag - cl2) <= v.value.radius


@pytest.mark.parametrize("N, k, order, certificate", [
    (7, 2, 84, Fraction(11, 84)),
    (8, 3, 48, Fraction(13, 48)),
    (12, 5, 24, Fraction(11, 24)),
])
def test_dilog_pair_is_torsion(N, k, order, certificate):
    # Z_{N,k} + Z_{N,N-k} is real, q = -(N/3 - 2k(N - k)/N)/4 mod 1
    q = -(Fraction(N, 3) - Fraction(2 * k * (N - k), N)) / 4
    assert q % 1 == certificate
    _pair_is_torsion(N, k, order, certificate, BITS)


def _pair_is_torsion(N, k, order, certificate, bits):
    with workprec(bits):
        v = regulator(dilog_pair(N, k), precision_bits=bits)
        tr = torsion_order(v)
    assert (tr.order, tr.certificate) == (order, certificate)


def test_member_and_pair_at_53_bits():
    # the first locus runs from the pole of f_1 to its zero, so a family
    # member and a pair evaluate at the lowest supported precision
    _member_holds_li2_and_cl2(12, 5, 53)
    _pair_is_torsion(12, 5, 24, Fraction(11, 24), 53)
