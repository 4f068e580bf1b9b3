import random
from fractions import Fraction

import mpmath as mp
import pytest

from chowreg import (
    ChowregError,
    CurveComponent,
    CyclotomicNumber,
    INF,
    PrecisionError,
    Precycle,
    PropernessError,
    RationalFunction,
    boundary,
    check_face_proper,
    face_vanishing_profile,
    is_closed,
    is_degenerate,
    is_normalized,
    normalize,
    parse_cycle_file,
    workprec,
)
from chowreg.cycles import (
    boundary_squared_terms,
    double_facet_terms,
    face_restriction,
    weil_symbol_product,
)
from chowreg.numeric import kept


def t_var(order=1):
    return RationalFunction.t(order)


def const(q, order=1):
    return RationalFunction.from_rational(Fraction(q), order)


def test_z1_face_proper(z1):
    with workprec(128):
        assert check_face_proper(z1)["ok"]


def _twin(Z):
    """A new precycle on the components of Z: the divisors of the shared
    coordinates are kept, the facet restrictions of Z are not."""
    return Precycle(Z.n, Z.p, Z.components, order=Z.order, name=Z.name)


def test_prechecks_divide_nothing(petras, monkeypatch):
    # closedness and face properness decide every exact facet point from
    # num and den there: no inverse in Q(zeta_5) once the divisors are
    # known.  The twin restricts to every facet afresh, so no kept result
    # passes this
    with workprec(128):
        assert is_closed(petras, 128)
        twin = _twin(petras)
        calls = []
        inverse = CyclotomicNumber.inverse
        monkeypatch.setattr(CyclotomicNumber, "inverse",
                            lambda x: calls.append(x) or inverse(x))
        assert twin._memo == {}
        assert is_closed(twin, 128)
        assert check_face_proper(twin)["ok"]
    assert calls == []


def test_improper_at_infinity():
    t = t_var()
    bad = Precycle(2, 1, [CurveComponent(2, (t, 1 - t), 1)], order=1)
    with workprec(128):
        rep = check_face_proper(bad)
    assert not rep["ok"]
    assert rep["violations"][0]["coordinates"] == [1, 2]


def test_proper_with_constant_coordinate():
    t = t_var()
    ok = Precycle(2, 1, [CurveComponent(2, (t, const(5)), 1)], order=1)
    with workprec(128):
        assert check_face_proper(ok)["ok"]


def test_boundary_of_z1_vanishes(z1):
    with workprec(128):
        assert boundary(z1).is_empty()
        assert is_closed(z1)


def test_boundary_of_graph(graph_4_2):
    with workprec(128):
        b = boundary(graph_4_2)
    pts = {pt.coords[0].as_rational(): pt.mult for pt in b.components}
    assert pts == {Fraction(4): 1, Fraction(2): -2}
    assert not is_closed(graph_4_2)


def test_boundary_of_empty():
    empty = Precycle(3, 2, [], order=1)
    with workprec(128):
        assert boundary(empty).is_empty()


def test_boundary_rejects_improper():
    t = t_var()
    bad = Precycle(2, 1, [CurveComponent(2, (t, 1 - t), 1)], order=1)
    with workprec(128):
        with pytest.raises(PropernessError):
            boundary(bad)


def _one_component_cycle(n, component):
    return parse_cycle_file(
        f"field cyclotomic(1)\ncycle twin n={n} p={n - 1}\n"
        f"component mult=1 {component}\n")[0]


# each pair differs only in whether the facet root t^2 = 1 or t^2 = 2 lies in
# Q; the escape and properness rules must not see the difference
@pytest.mark.parametrize("component", [
    "t^2-1 ; 1/(t^2-1) ; (t^3+t^2+4)/(t^3+5)",
    "t^2-2 ; 1/(t^2-2) ; (t^3+t^2+3)/(t^3+5)",
], ids=["exact", "cluster"])
def test_facet_point_escapes_before_it_is_improper(component):
    # at the roots of coordinate 1, coordinate 2 is oo but coordinate 3 is 1:
    # the point leaves the cube, so it is dropped and is no violation
    Z = _one_component_cycle(3, component)
    with workprec(128):
        assert check_face_proper(Z)["ok"]
        assert face_restriction(Z, 1, "0") == []


@pytest.mark.parametrize("component", [
    "t^2-1 ; (t^2-1)/(t+5)",
    "t^2-2 ; (t^2-2)/(t+5)",
], ids=["exact", "cluster"])
def test_facet_point_in_a_second_facet_is_improper(component):
    Z = _one_component_cycle(2, component)
    with workprec(128):
        assert not check_face_proper(Z)["ok"]
        with pytest.raises(PropernessError, match="a second coordinate hits 0 or oo"):
            face_restriction(Z, 1, "0")


def test_petras_closed_and_normalized(petras):
    with workprec(160):
        assert check_face_proper(petras)["ok"]
        assert is_closed(petras)
        assert is_normalized(petras)


def test_degeneracy_detection():
    t = t_var()
    assert is_degenerate(CurveComponent(3, (t, const(2), const(3)), 1))
    assert not is_degenerate(CurveComponent(2, (t * t, const(2)), 1))


def test_z1_not_degenerate(z1):
    assert not is_degenerate(z1.components[0])


def test_face_profile_of_z1(z1):
    with workprec(128):
        table = face_vanishing_profile(z1)
    assert all(table.values())


def test_face_profile_of_graph(graph_4_2):
    with workprec(128):
        table = face_vanishing_profile(graph_4_2)
    assert not table[(1, "0")]
    assert not is_normalized(graph_4_2)


def test_normalize_fixes_infinity_facet():
    # W = ((t-1)/(t-2), 1/t): 0-facets vanish, the first oo-facet does not
    t = t_var()
    W = Precycle(2, 1, [CurveComponent(2, ((t - 1) / (t - 2), 1 / t), 1)], order=1)
    with workprec(128):
        assert not is_normalized(W)
        Wn = normalize(W)
        assert is_normalized(Wn)
        # correction curve is (t, a(t-1)/(t-a)) for a = 1/2 with mult -1
        half = const(Fraction(1, 2))
        expected = CurveComponent(2, (t, half * (t - 1) / (t - half)), -1)
        assert expected.key() in {c.key() for c in Wn.components}
        assert {c.mult for c in Wn.components} == {1, -1}
        # idempotence
        Wnn = normalize(Wn)
        assert {c.key() for c in Wnn.components} == {c.key() for c in Wn.components}


def test_normalize_identity_on_normalized(z1):
    with workprec(128):
        assert {c.key() for c in normalize(z1).components} == \
            {c.key() for c in z1.components}


def test_normalize_empty():
    empty = Precycle(3, 2, [], order=1)
    assert normalize(empty).is_empty()


def test_normalize_rejects_zero_facets(graph_4_2):
    with workprec(128):
        with pytest.raises(ChowregError, match="0-facet"):
            normalize(graph_4_2)


def test_normalize_three_cube_closed_cycle():
    # closed but not normalized: opposite facet contributions cancel
    t = t_var()
    V = Precycle(3, 2, [CurveComponent(
        3, ((t - 1) / (t - 2), 1 / t, const(2)), 1)], order=1)
    with workprec(128):
        assert is_closed(V)
        assert not is_normalized(V)
        Vn = normalize(V)
        assert is_normalized(Vn)
        assert is_closed(Vn)
        assert len(Vn.components) == 2  # the two join-pullback terms cancel


def test_boundary_squared_cancels(z1, petras, mccarthy):
    with workprec(128):
        for Z in (z1, petras, mccarthy):
            assert boundary_squared_terms(Z) == {}


def test_double_facet_terms_nonvacuous():
    # (t, 2t, 1-t) has genuine double-facet incidences at t=0 and t=oo,
    # so the cancellation above is not an empty statement
    t = t_var()
    Z = Precycle(3, 2, [CurveComponent(3, (t, 2 * t, 1 - t), 1)], order=1)
    with workprec(128):
        finite = double_facet_terms(Z, 1, "0", 2, "0")
        at_inf = double_facet_terms(Z, 1, "inf", 2, "inf")
        assert finite and at_inf
        assert boundary_squared_terms(Z) == {}


def test_weil_product_graph(graph_4_2):
    with workprec(128):
        assert weil_symbol_product(graph_4_2).is_one()


def test_weil_product_random_graphs():
    rng = random.Random(41)
    with workprec(160):
        built = 0
        while built < 20:
            # Moebius-quotient coordinates have value 1 at infinity, which
            # keeps every facet configuration proper automatically
            a1, a2, b1, b2 = (rng.randint(-9, 9) for _ in range(4))
            if len({a1, a2, b1, b2}) != 4:
                continue
            t = t_var()
            f1 = (t - a1) / (t - a2)
            f2 = (t - b1) / (t - b2)
            Z = Precycle(2, 1, [CurveComponent(2, (f1, f2), 1)], order=1)
            if not check_face_proper(Z)["ok"]:
                continue
            assert weil_symbol_product(Z).is_one()
            built += 1


def test_degenerate_component_has_zero_boundary():
    t = t_var()
    deg = Precycle(3, 2, [CurveComponent(3, (t, const(5), const(7)), 3)], order=1)
    with workprec(128):
        assert boundary(deg).is_empty()
        assert is_closed(deg)


def test_adding_degenerate_preserves_closedness(z1):
    t = t_var()
    deg = CurveComponent(3, (t, const(5), const(7)), 2)
    bigger = Precycle(3, 2, list(z1.components) + [deg], order=1)
    with workprec(128):
        assert is_closed(bigger)


def test_component_validation():
    t = t_var()
    with pytest.raises(ChowregError):
        CurveComponent(2, (t, const(1)), 1)  # identically 1
    with pytest.raises(ChowregError):
        CurveComponent(2, (t, const(0)), 1)  # identically 0
    with pytest.raises(ChowregError):
        CurveComponent(2, (const(2), const(3)), 1)  # no nonconstant coordinate
    with pytest.raises(ChowregError):
        CurveComponent(2, (t, 1 / t), 0)  # zero multiplicity


def test_reduction_merges_components(z1):
    doubled = Precycle(3, 2, list(z1.components) + list(z1.components), order=1)
    assert len(doubled.components) == 1
    assert doubled.components[0].mult == 2
    cancel = Precycle(3, 2, [
        z1.components[0],
        CurveComponent(3, z1.components[0].coords, -1),
    ], order=1)
    assert cancel.is_empty()


def test_dimension_bookkeeping():
    t = t_var()
    with pytest.raises(ChowregError):
        Precycle(3, 1, [CurveComponent(3, (t, 1 - t, 1 / t), 1)], order=1)


def test_regulator_restricts_to_each_facet_once(petras, monkeypatch):
    # closedness, normalization, the boundary, the facet profile and
    # regulator() all read the restrictions kept on the precycle: over all
    # of them and two regulator() calls, each of the 2n facets of a fresh
    # precycle is restricted once
    import chowreg.cycles as cycles
    from chowreg import regulator

    calls = []
    restrict = cycles.face_restriction

    def counting(Z, i, value):
        calls.append((i, value))
        return restrict(Z, i, value)

    with workprec(128):
        profile = face_vanishing_profile(petras)
        Z = _twin(petras)
        monkeypatch.setattr(cycles, "face_restriction", counting)
        assert is_closed(Z, 128) and is_normalized(Z)
        assert boundary(Z).is_empty()
        assert face_vanishing_profile(Z) == profile
        first = regulator(Z, precision_bits=128)
        second = regulator(Z, precision_bits=128)
    assert repr(first.value) == repr(second.value)
    assert sorted(calls) == sorted((i, v) for i in (1, 2, 3)
                                   for v in ("0", "inf"))


def test_a_build_that_raises_keeps_nothing():
    # numeric.kept stores a value only once its build returns, so a call
    # after a refused build builds again.  A split facet cluster is refused
    # at every doubling: no facets are kept on its precycle
    calls = []

    def build():
        calls.append(1)
        if len(calls) == 1:
            raise PrecisionError("undecided")
        return "built"

    holder = Precycle(2, 1, [], order=1)
    with pytest.raises(PrecisionError):
        kept(holder, "key", build)
    assert holder._memo == {}
    assert kept(holder, "key", build) == kept(holder, "key", build) == "built"
    assert len(calls) == 2
    (Z,) = parse_cycle_file("field cyclotomic(1)\ncycle c n=2 p=1\n"
                            "component mult=1 (t^2-2)*(t^2-3) ; "
                            "(t^2-2)/(t+7)\n")
    with workprec(128):
        for _ in range(2):
            with pytest.raises(PrecisionError, match="splits"):
                is_closed(Z, 128)
    assert Z._memo == {}


@pytest.mark.parametrize("bits", [512, 1024])
def test_closedness_escalation_stops_at_1024_bits(bits):
    # doubling from 512 or 1024 bits once asked for 2048 or 4096 bits,
    # above the supported range, and the refusal named that precision
    # instead of the split cluster
    (Z,) = parse_cycle_file("field cyclotomic(1)\ncycle c n=2 p=1\n"
                            "component mult=1 (t^2-2)*(t^2-3) ; "
                            "(t^2-2)/(t+7)\n")
    with pytest.raises(PrecisionError, match="splits"):
        is_closed(Z, bits)


def _irrational_facets(mult):
    # f_1 = t^2 - 2 vanishes at +-sqrt(2), which no exact factor finds: its
    # facet points are numeric clusters, matched by ball distance
    return parse_cycle_file(
        "field cyclotomic(1)\ncycle irr n=2 p=1\n"
        "component mult=1 t^2-2 ; (t+3)/(t-5)\n"
        f"component mult={mult} t^2-2 ; (t-3)/(t+5)\n")[0]


@pytest.mark.parametrize("bits", [53, 128])
def test_numeric_facet_points_cancel_and_add(bits):
    # at +-sqrt(2) the two second coordinates take the same two irrational
    # values, (3 - sqrt 2)/(-5 - sqrt 2) and (3 + sqrt 2)/(-5 + sqrt 2), with
    # the roles of the two roots swapped
    with workprec(bits):
        assert is_closed(_irrational_facets(-1), bits)
        Z = _irrational_facets(1)
        assert not is_closed(Z, bits)
        points = boundary(Z).components
        numeric = sorted((pt for pt in points if not pt.is_exact()),
                         key=lambda pt: float(pt.coords[0].value.real))
        exact = [(pt.mult, pt.coords[0]) for pt in points if pt.is_exact()]
        sqrt2 = mp.sqrt(2)
        for pt, value in zip(numeric, ((3 + sqrt2) / (sqrt2 - 5),
                                       (3 - sqrt2) / (-sqrt2 - 5))):
            assert pt.mult == -2
            assert abs(pt.coords[0].value - value) <= 2.0 ** (8 - bits)
    assert len(numeric) == 2 and len(points) == 4
    assert sorted(exact, key=lambda e: e[0]) == [
        (-2, CyclotomicNumber.from_rational(23, 1)),
        (2, CyclotomicNumber.from_rational(7, 1))]


@pytest.mark.parametrize("bits", [53, 128])
@pytest.mark.parametrize("text, square, at_infinity", [
    ("(t^2-2)*(t^2-3) ; (t^2-2)/(t+7)", 2, [1, 2]),
    ("(t^2-2)*(t^2-3) ; (t^2-3)*(t-1)/(t+7) ; t+9", 3, [1, 2, 3]),
], ids=["2-cube", "3-cube"])
def test_a_split_cluster_is_reported_and_refused(text, square, at_infinity,
                                                 bits):
    # the zeros of f_1 form one numeric cluster, (t^2 - 2)(t^2 - 3), and
    # f_2 vanishes at the roots of t^2 - square only.  check_face_proper
    # reports those two roots with coordinates [1, 2], and t = oo with the
    # coordinates that are 0 or oo there; face_restriction refuses the
    # cluster, whose roots meet f_2 differently
    n = text.count(";") + 1
    (Z,) = parse_cycle_file(f"field cyclotomic(1)\ncycle c n={n} p={n - 1}\n"
                            f"component mult=1 {text}\n")
    with workprec(bits):
        report = check_face_proper(Z)
        assert not report["ok"]
        roots = []
        for v in report["violations"]:
            if v["location"] is INF:
                assert v["coordinates"] == at_infinity
                continue
            assert v["coordinates"] == [1, 2]
            roots.append(v["location"].value)
        assert len(roots) == 2 and len(report["violations"]) == 3
        for x, sign in zip(sorted(roots, key=lambda x: x.real), (-1, 1)):
            assert abs(x - sign * mp.sqrt(square)) <= 2.0 ** (8 - bits)
        with pytest.raises(PrecisionError, match="splits"):
            face_restriction(Z, 1, "0")
