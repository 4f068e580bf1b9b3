import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import ChowregError, CyclotomicNumber, cyclo_arith, embed, promote_pair, workprec
from chowreg.field import cyclotomic_polynomial, euler_phi

ORDERS = [1, 2, 3, 4, 5, 8, 12]


def random_element(rng, order):
    phi = euler_phi(order)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(phi)]
    return CyclotomicNumber(order, coeffs)


def test_i_squared():
    i = CyclotomicNumber.zeta(4)
    assert cyclo_arith(i, i, "mul") == -1


def test_identity_multiplication():
    rng = random.Random(7)
    for _ in range(30):
        order = rng.choice(ORDERS)
        x = random_element(rng, order)
        assert cyclo_arith(CyclotomicNumber.one(order), x, "mul") == x


def test_golden_ratio_minimal_polynomial():
    # x = zeta5 + zeta5^4 satisfies x^2 + x - 1 = 0
    z = CyclotomicNumber.zeta(5)
    x = z + z ** 4
    assert (x * x + x - CyclotomicNumber.one(5)).is_zero()


def test_mismatched_orders_rejected():
    a = CyclotomicNumber.zeta(4)
    b = CyclotomicNumber.zeta(3)
    with pytest.raises(ChowregError):
        cyclo_arith(a, b, "add")
    pa, pb = promote_pair(a, b)
    assert pa.order == pb.order == 12
    assert pa == CyclotomicNumber.zeta(12) ** 3
    assert pb == CyclotomicNumber.zeta(12) ** 4


def test_division_by_zero_rejected():
    a = CyclotomicNumber.one(5)
    with pytest.raises(ZeroDivisionError):
        cyclo_arith(a, CyclotomicNumber.zero(5), "div")


def test_inverse_random():
    rng = random.Random(11)
    for _ in range(40):
        order = rng.choice(ORDERS)
        x = random_element(rng, order)
        if x.is_zero():
            continue
        assert (x * x.inverse()).is_one()


def test_field_axioms_random_triples():
    rng = random.Random(13)
    for _ in range(60):
        order = rng.choice(ORDERS)
        a, b, c = (random_element(rng, order) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_conjugate_is_complex_conjugate():
    with workprec(128):
        z = CyclotomicNumber.zeta(5) + 3 * CyclotomicNumber.zeta(5) ** 2
        v = embed(z, 128).value
        w = embed(z.conjugate(), 128).value
        assert abs(v.conjugate() - w) < 1e-30


def test_embed_i_exact():
    with workprec(128):
        ball = embed(CyclotomicNumber.zeta(4), 128)
        assert ball.value == mp.mpc(0, 1)
        assert ball.radius == 0.0


def test_embed_rational_exact():
    with workprec(128):
        ball = embed(CyclotomicNumber.from_rational(Fraction(7, 2)), 128)
        assert ball.value == mp.mpf("3.5")
        assert ball.radius == 0.0


def test_embed_golden_ratio():
    with workprec(256):
        z = CyclotomicNumber.zeta(5)
        ball = embed(z + z ** 4, 256)
        expected = (mp.sqrt(5) - 1) / 2
        assert abs(ball.value - expected) <= ball.radius + mp.mpf(2) ** -250
        assert str(mp.nstr(ball.value.real, 11)).startswith("0.6180339887")


@pytest.mark.parametrize("order", ORDERS)
def test_cyclotomic_polynomial_vanishes_at_embedded_root(order):
    with workprec(192):
        z = embed(CyclotomicNumber.zeta(order), 192)
        acc = mp.mpc(0)
        for c in reversed(cyclotomic_polynomial(order)):
            acc = acc * z.value + c
        assert abs(acc) < mp.mpf(2) ** -150


def test_embedding_is_ring_homomorphism():
    rng = random.Random(17)
    with workprec(192):
        for _ in range(200):
            order = rng.choice(ORDERS)
            a = random_element(rng, order)
            b = random_element(rng, order)
            lhs = embed(a * b, 192)
            ra, rb = embed(a, 192), embed(b, 192)
            rhs = ra * rb
            assert abs(lhs.value - rhs.value) <= lhs.radius + rhs.radius + 1e-40


def test_cyclotomic_polynomial_degrees():
    for order in ORDERS:
        assert len(cyclotomic_polynomial(order)) == euler_phi(order) + 1


# A reference model of Q(zeta_N): Fraction coefficient vectors of length
# phi(N), reduced modulo Phi_N; the inverse solves x * y = 1 as a linear
# system, independently of the Galois conjugates the field uses.
DIFF_ORDERS = [1, 2, 3, 4, 5, 7, 8, 12, 15, 24]


def ref_reduce(coeffs, n):
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = [Fraction(c) for c in coeffs] + [Fraction(0)] * deg
    for k in range(len(work) - 1, deg - 1, -1):
        c, work[k] = work[k], Fraction(0)
        for j in range(deg):
            work[k - deg + j] -= c * phi[j]
    return tuple(work[:deg])


def ref_mul(a, b, n):
    prod = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_reduce(prod, n)


def ref_inverse(a, n):
    phi = len(a)
    basis = [ref_reduce([0] * k + [1], n) for k in range(phi)]
    # column k of the matrix of y -> a * y is a * zeta^k
    cols = [ref_mul(a, basis[k], n) for k in range(phi)]
    rows = [[col[i] for col in cols] + [Fraction(i == 0)] for i in range(phi)]
    for col in range(phi):
        pivot = next(r for r in range(col, phi) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r in range(phi):
            if r != col and rows[r][col]:
                rows[r] = [v - rows[r][col] * w for v, w in zip(rows[r], rows[col])]
    return tuple(row[-1] for row in rows)


def ref_pow(a, k, n):
    base = ref_inverse(a, n) if k < 0 else a
    out = ref_reduce([1], n)
    for _ in range(abs(k)):
        out = ref_mul(out, base, n)
    return out


def ref_galois(a, j, n):
    work = [Fraction(0)] * n
    for k, c in enumerate(a):
        work[k * j % n] += c
    return ref_reduce(work, n)


def ref_promote(a, n, m):
    step = m // n
    work = [Fraction(0)] * (len(a) * step)
    for k, c in enumerate(a):
        work[k * step] += c
    return ref_reduce(work, m)


def assert_matches(x, ref, order):
    assert x.order == order
    assert x.coeffs == ref
    assert all(type(c) is Fraction for c in x.coeffs)
    assert len(x.num) == euler_phi(order)
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


def test_integer_vectors_match_the_fraction_reference():
    rng = random.Random(19)
    for _ in range(60):
        order = rng.choice(DIFF_ORDERS)
        x, y = random_element(rng, order), random_element(rng, order)
        a, b = ref_reduce(x.coeffs, order), ref_reduce(y.coeffs, order)
        assert_matches(x + y, tuple(p + q for p, q in zip(a, b)), order)
        assert_matches(x - y, tuple(p - q for p, q in zip(a, b)), order)
        assert_matches(x * y, ref_mul(a, b, order), order)
        assert_matches(-x, tuple(-p for p in a), order)
        if not y.is_zero():
            assert_matches(x / y, ref_mul(a, ref_inverse(b, order), order), order)
            assert_matches(y.inverse(), ref_inverse(b, order), order)
            k = rng.choice([-3, -2, -1, 2, 3])
            assert_matches(y ** k, ref_pow(b, k, order), order)
        units = [j for j in range(1, order + 1) if math.gcd(j, order) == 1]
        j = rng.choice(units)
        assert_matches(x.galois(j), ref_galois(a, j, order), order)
        if order > 2:
            assert_matches(x.conjugate(), ref_galois(a, order - 1, order), order)
        m = order * rng.choice([1, 2, 3])
        assert_matches(x.promote(m), ref_promote(a, order, m), m)
        other = random_element(rng, rng.choice(DIFF_ORDERS))
        lcm = order * other.order // math.gcd(order, other.order)
        px, po = promote_pair(x, other)
        assert_matches(px, ref_promote(a, order, lcm), lcm)
        assert_matches(po, ref_promote(ref_reduce(other.coeffs, other.order),
                                       other.order, lcm), lcm)


def test_embedding_matches_the_fraction_reference():
    # the Horner pass divides each reduced numerator by its reduced
    # denominator, so it is bit-identical to one over the reference
    rng = random.Random(23)
    for _ in range(40):
        order = rng.choice(DIFF_ORDERS)
        x = random_element(rng, order)
        a = ref_reduce(x.coeffs, order)
        with workprec(168):
            zeta, acc = mp.e ** (2j * mp.pi / order), mp.mpc(0)
            for c in reversed(a):
                acc = acc * zeta + mp.mpf(c.numerator) / mp.mpf(c.denominator)
        with workprec(128):
            ball = embed(x, 128)
            if ball.radius:
                assert ball.value == +acc
        with workprec(256):
            exact = mp.fsum(mp.mpf(c.numerator) / c.denominator
                            * mp.expjpi(mp.mpf(2 * k) / order) for k, c in enumerate(a))
            assert abs(ball.value - exact) <= ball.radius


def test_equal_elements_hash_equal_whatever_their_route():
    half_minus = CyclotomicNumber(5, [Fraction(2, 4), Fraction(-3, 6), 0, 0])
    z5 = CyclotomicNumber.zeta(5)
    routes = [
        half_minus,
        CyclotomicNumber(5, [Fraction(1, 2), Fraction(-1, 2)]),
        (1 - z5) / 2,
        (1 - z5) * Fraction(1, 2),
        ((1 - z5) * (z5 + 3)) / (z5 + 3) / 2,
        CyclotomicNumber(5, [1, 0, 0, 0, 0, -1, -1]) / 2 + Fraction(1, 2),
    ]
    for x in routes:
        assert x == half_minus and hash(x) == hash(half_minus)
        assert (x.num, x.den) == ((1, -1, 0, 0), 2)
    i4 = CyclotomicNumber.zeta(4)
    i12 = CyclotomicNumber.zeta(12) ** 3
    assert i4.promote(12) == i12 and hash(i4.promote(12)) == hash(i12)
    assert i12 == i4 and i4 == i12
    assert (i4 * 3 + 1).promote(24) == (i12 * 3 + 1).promote(24)
    three = CyclotomicNumber.from_rational(3, 5)
    for x in (CyclotomicNumber.from_rational(Fraction(6, 2), 5), CyclotomicNumber(5, [3]),
              CyclotomicNumber(5, [Fraction(9, 3), 0, 0, 0]), three * z5 / z5):
        assert x == three and hash(x) == hash(three)
    assert three == 3 and three == Fraction(3) and three != Fraction(3, 2)
    assert CyclotomicNumber.from_rational(Fraction(6, 4), 5) == Fraction(3, 2)
    assert CyclotomicNumber.from_rational(-2, 3) == -2
    assert (z5 - z5).num == (0, 0, 0, 0) and (z5 - z5).den == 1
    assert CyclotomicNumber.from_rational(Fraction(-3, 4), 5).inverse().den == 3
    assert isinstance(half_minus.coeffs, tuple)
    assert half_minus.coeffs == (Fraction(1, 2), Fraction(-1, 2), Fraction(0), Fraction(0))
    assert all(type(c) is Fraction for c in half_minus.coeffs)
