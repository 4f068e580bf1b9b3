"""The cubical cycle data model: precycles, face properness, the boundary
operator, degeneracy detection, and the normalization operator.

Cycle components live in the algebraic n-cube (P^1 minus {1})^n with facets at
coordinate values 0 and oo.  Curve-level components are rational
parametrizations t -> (f_1(t), ..., f_n(t)); point-level components are
coordinate tuples.  The boundary operator restricts to facets with the
alternating sign convention sum_i (-1)^i (facet_i_at_0 - facet_i_at_oo).

Escape rule used throughout: a candidate facet point is discarded exactly when
some remaining coordinate equals 1, because the point then leaves the open
cube; only a point that stays in the cube can be improper.  ``_incidence``
is the one place that decides how a coordinate meets a facet point, exactly
for field points and by gcd against a numeric cluster's squarefree factor;
``face_restriction`` and ``check_face_proper`` both read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import mpmath as mp

from .errors import ChowregError, PrecisionError, PropernessError
from .field import CyclotomicNumber, embed
from .funcfield import INF, DivisorPoint, RationalFunction
from .numeric import ComplexApprox, kept

FACET_ZERO = "0"
FACET_INF = "inf"
CLOSEDNESS_ESCALATIONS = 2


@dataclass(frozen=True)
class CurveComponent:
    """A parametrized curve t -> (f_1(t), ..., f_n(t)) with multiplicity."""

    n: int
    coords: tuple
    mult: int
    # schedule-independent data built once by ``numeric.kept``: per
    # precision, "off_cut" (``wavefront._off_cut_entries``), exact where a
    # value is 0 or oo, and "chart_terms" (``regulator._chart_terms``);
    # exact, "chart" (``wavefront._chart``).  f_1^-1 is kept on f_1, the facet
    # restrictions on the precycle as ("facets", bits) (``cycles._facets``)
    _memo: dict = dataclass_field(default_factory=dict, init=False,
                                  repr=False, compare=False)

    def __post_init__(self):
        if self.mult == 0:
            raise ChowregError("component multiplicity must be nonzero")
        if len(self.coords) != self.n:
            raise ChowregError(f"expected {self.n} coordinates, got {len(self.coords)}")
        nonconstant = 0
        for k, f in enumerate(self.coords):
            if not isinstance(f, RationalFunction):
                raise ChowregError(f"coordinate {k + 1} is not a rational function")
            if f.is_one():
                raise ChowregError(f"coordinate {k + 1} is identically 1 (not in the cube)")
            if f.is_zero():
                raise ChowregError(f"coordinate {k + 1} is identically 0 (lies in a facet)")
            if not f.is_constant():
                nonconstant += 1
        if nonconstant == 0:
            raise ChowregError("curve component must have a nonconstant coordinate")

    def key(self):
        return tuple((f.num.coeffs, f.den.coeffs) for f in self.coords)

    def __str__(self):
        inner = " ; ".join(str(f) for f in self.coords)
        return f"{self.mult:+d} * ({inner})"


@dataclass(frozen=True)
class PointComponent:
    """A point of the n-cube with multiplicity; coordinates are exact field
    elements, INF, or complex balls (never 1)."""

    n: int
    coords: tuple
    mult: int

    def __post_init__(self):
        if self.mult == 0:
            raise ChowregError("component multiplicity must be nonzero")
        if len(self.coords) != self.n:
            raise ChowregError(f"expected {self.n} coordinates, got {len(self.coords)}")
        for k, v in enumerate(self.coords):
            if isinstance(v, CyclotomicNumber) and v.is_one():
                raise ChowregError(f"point coordinate {k + 1} equals 1 (not in the cube)")

    def is_exact(self):
        return all(isinstance(v, CyclotomicNumber) or v is INF for v in self.coords)

    def exact_key(self):
        return tuple(
            ("inf",) if v is INF else ("e", v.order, v.coeffs) for v in self.coords
        )

    def __str__(self):
        def fmt(v):
            if v is INF:
                return "inf"
            if isinstance(v, CyclotomicNumber):
                return str(v)
            return mp.nstr(v.value, 12)

        return f"{self.mult:+d} * ({', '.join(fmt(v) for v in self.coords)})"


class Precycle:
    """Formal integer combination of components in the n-cube.

    Curve-level precycles satisfy n - p = 1, point-level n - p = 0.  The
    component list is kept reduced: identical components merged, zero
    multiplicities dropped.
    """

    def __init__(self, n, p, components, order=1, name=None):
        # ("facets", bits): ``_facets``; ("face_proper", bits):
        # ``check_face_proper``
        self._memo = {}
        self.n = n
        self.p = p
        self.order = order
        self.name = name
        comps = list(components)
        if comps:
            kinds = {type(c) for c in comps}
            if len(kinds) > 1:
                raise ChowregError("precycle mixes curve and point components")
            level = 1 if isinstance(comps[0], CurveComponent) else 0
            if n - p != level:
                raise ChowregError(
                    f"dimension bookkeeping violated: n={n}, p={p} needs n-p={level}"
                )
            for c in comps:
                if c.n != n:
                    raise ChowregError("component cube dimension differs from precycle")
        self.components = _reduce_components(comps)

    @property
    def is_curve_level(self):
        return self.n - self.p == 1

    @property
    def is_point_level(self):
        return self.n - self.p == 0

    def is_empty(self):
        return not self.components

    def __str__(self):
        if self.is_empty():
            return "0"
        return "\n".join(str(c) for c in self.components)


def _reduce_components(comps):
    """Merge identical components; exact identity for curves and exact points,
    ball-overlap identity for numeric points."""
    slots = []          # (kind, key-or-None, coords template, accumulated mult, sample)
    index = {}
    for c in comps:
        if isinstance(c, CurveComponent):
            k = ("c", c.key())
        elif isinstance(c, PointComponent) and c.is_exact():
            k = ("e", c.exact_key())
        else:
            k = None
        if k is not None:
            if k in index:
                slots[index[k]][1] += c.mult
            else:
                index[k] = len(slots)
                slots.append([c, c.mult])
        else:
            for slot in slots:
                other = slot[0]
                if isinstance(other, PointComponent) and not other.is_exact() \
                        and _points_coincide(c, other):
                    slot[1] += c.mult
                    break
            else:
                slots.append([c, c.mult])
    out = []
    for sample, mult in slots:
        if mult == 0:
            continue
        if isinstance(sample, CurveComponent):
            out.append(CurveComponent(sample.n, sample.coords, mult))
        else:
            out.append(PointComponent(sample.n, sample.coords, mult))
    return tuple(out)


def _coord_distance(a, b):
    """Decidable coincidence metric between point coordinates."""
    if a is INF or b is INF:
        return 0.0 if (a is INF and b is INF) else float("inf")
    if isinstance(a, CyclotomicNumber) and isinstance(b, CyclotomicNumber):
        return 0.0 if a == b else float("inf")
    ab = a if isinstance(a, ComplexApprox) else embed(a, mp.mp.prec)
    bb = b if isinstance(b, ComplexApprox) else embed(b, mp.mp.prec)
    d = float(abs(ab.value - bb.value))
    combined = ab.radius + bb.radius
    match_tol = max(16 * combined, 2.0 ** (-(3 * mp.mp.prec) // 5))
    distinct_tol = 2.0 ** (-mp.mp.prec // 4)
    if d <= match_tol:
        return 0.0
    if d >= distinct_tol:
        return float("inf")
    raise PrecisionError(
        f"point matching undecided at {mp.mp.prec} bits (distance {d:.3g}, "
        f"radii {combined:.3g}); retry at higher precision"
    )


def _points_coincide(a, b):
    return all(_coord_distance(x, y) == 0.0 for x, y in zip(a.coords, b.coords))


def _facet_sign(i, value):
    """Sign of the facet (i, value) term inside the boundary operator."""
    s = -1 if (i % 2) else 1  # (-1)^i with 1-based i
    return s if value == FACET_ZERO else -s


def _coordinate_hits(comp, i, value):
    """Divisor points where coordinate i takes the facet value (0 or oo).

    Multiplicities are returned positive.
    """
    f = comp.coords[i - 1]
    if f.is_constant():
        return []
    hits = []
    for pt in f.divisor():
        if value == FACET_ZERO and pt.multiplicity > 0:
            hits.append(DivisorPoint(pt.location, pt.multiplicity, pt.factor))
        elif value == FACET_INF and pt.multiplicity < 0:
            hits.append(DivisorPoint(pt.location, -pt.multiplicity, pt.factor))
    return hits


# How a remaining coordinate meets a facet point (see ``_incidence``).
ONE = "one"
FACET = "facet"
NEITHER = "neither"
SPLIT = "split"


def _incidence(f, hit):
    """How coordinate ``f`` meets the facet point ``hit``: ONE where f = 1
    (the point leaves the cube), FACET where f is 0 or oo, NEITHER, or SPLIT
    when the roots of a numeric cluster disagree.

    An exact location (field element or INF) is decided from num and den
    there, without dividing; a cluster from the gcds of its squarefree
    factor with num - den, num and den.  f is never identically 1, so
    num - den is nonzero.
    """
    if hit.is_exact:
        if hit.location is INF:
            if f.num.degree != f.den.degree:
                return FACET
            nv, dv = f.num.lead(), f.den.lead()
        else:
            nv, dv = f.num.eval_exact(hit.location), f.den.eval_exact(hit.location)
        if nv.is_zero() or dv.is_zero():
            return FACET
        return ONE if nv == dv else NEITHER
    factor = hit.factor
    one = factor.gcd(f.num - f.den).degree
    facet = factor.gcd(f.num).degree + factor.gcd(f.den).degree
    if one == factor.degree:
        return ONE
    if facet == factor.degree:
        return FACET
    return NEITHER if one == facet == 0 else SPLIT


def face_restriction(Z, i, value):
    """The facet restriction as a list of PointComponents in the (n-1)-cube.

    Points where a remaining coordinate equals 1 escape the cube and are
    discarded; otherwise a remaining coordinate hitting 0 or oo is an
    improper face configuration and raises PropernessError.
    """
    if not Z.is_curve_level:
        raise ChowregError("face restriction is defined for curve-level precycles")
    out = []
    for comp in Z.components:
        others = [f for j, f in enumerate(comp.coords, 1) if j != i]
        for hit in _coordinate_hits(comp, i, value):
            incidences = {_incidence(f, hit) for f in others}
            if ONE in incidences:
                continue
            if SPLIT in incidences:
                raise PrecisionError(
                    f"facet cluster at {hit.location} splits: its roots meet a "
                    "second coordinate differently; unsupported mixed case"
                )
            if FACET in incidences:
                raise PropernessError(
                    f"improper face configuration at {hit.location}: a second "
                    "coordinate hits 0 or oo; run check_face_proper"
                )
            out.append(PointComponent(Z.n - 1,
                                      tuple(f.eval(hit.location) for f in others),
                                      comp.mult * hit.multiplicity))
    return out


def _facets(Z, precision_bits):
    """(the restrictions (i, value, points) to the 2n facets in the order
    of the boundary sum, their signed sum reduced), kept on Z per
    precision.  The precision doubles, at most CLOSEDNESS_ESCALATIONS
    times and never past 1024 bits, while a restriction or the reduction
    is undecided."""

    def build():
        # an empty point-level precycle has no facets and the empty boundary
        if not (Z.is_curve_level or Z.is_empty()):
            raise ChowregError("boundary is defined for curve-level precycles here")
        for attempt in range(CLOSEDNESS_ESCALATIONS + 1):
            try:
                with mp.workprec(precision_bits * 2 ** attempt):
                    facets = [(i, value, face_restriction(Z, i, value))
                              for i in range(1, Z.n + 1) if Z.is_curve_level
                              for value in (FACET_ZERO, FACET_INF)]
                    return facets, Precycle(Z.n - 1, Z.p, [
                        PointComponent(pt.n, pt.coords,
                                       _facet_sign(i, value) * pt.mult)
                        for i, value, points in facets for pt in points],
                        order=Z.order)
            except PrecisionError:
                if (attempt == CLOSEDNESS_ESCALATIONS
                        or precision_bits * 2 ** (attempt + 1) > 1024):
                    raise
    return kept(Z, ("facets", precision_bits), build)


def boundary(Z):
    """The alternating facet sum, landing one cube level down (see
    ``_facets``)."""
    return _facets(Z, mp.mp.prec)[1]


def is_closed(Z, precision_bits=None):
    """True iff the boundary reduces to the empty precycle.

    Numeric ambiguity in a facet restriction or in the reduction of their
    sum escalates ``precision_bits`` (two doublings, ``_facets``) before
    raising, so a False answer is never a silent artifact of low precision.
    """
    return _facets(Z, precision_bits or mp.mp.prec)[1].is_empty()


def is_degenerate(comp):
    """A single component is recognized degenerate when it is a full
    coordinate-line fiber: exactly one nonconstant coordinate, and that one an
    isomorphism of P^1 (degree-1 Moebius map)."""
    if not isinstance(comp, CurveComponent):
        return False
    nonconstant = [f for f in comp.coords if not f.is_constant()]
    return len(nonconstant) == 1 and nonconstant[0].degree_map == 1


def check_face_proper(Z):
    """Report whether every component meets all cube faces properly.

    A violation is a parameter where >= 2 coordinates lie in {0, oo} while no
    remaining coordinate equals 1 (the point would sit inside a codimension-2
    face, which a curve must miss).  The report is built once per working
    precision, at which the divisors are read, and kept on the precycle;
    each call hands out a copy of it.
    """
    if not Z.is_curve_level:
        raise ChowregError("face properness applies to curve-level precycles")
    report = kept(Z, ("face_proper", mp.mp.prec),
                  lambda: _face_proper_report(Z))
    return {"ok": report["ok"],
            "violations": [dict(v, coordinates=list(v["coordinates"]))
                           for v in report["violations"]]}


def _face_proper_report(Z):
    """``check_face_proper``'s report, built anew."""
    report = {"ok": True, "violations": []}
    for ci, comp in enumerate(Z.components):
        locations = []  # (divisor point, index of the coordinate it is a hit of)
        for i in range(1, Z.n + 1):
            for value in (FACET_ZERO, FACET_INF):
                for hit in _coordinate_hits(comp, i, value):
                    locations.append((hit, i))
        # group by coincident location
        groups = []
        for hit, i in locations:
            placed = False
            for g in groups:
                if _divisor_locations_equal(g[0][0], hit):
                    g.append((hit, i))
                    placed = True
                    break
            if not placed:
                groups.append([(hit, i)])
        for g in groups:
            coords_hit = sorted({i for _, i in g})
            if len(coords_hit) < 2:
                continue
            hit = g[0][0]
            escaped = any(_incidence(comp.coords[j - 1], hit) == ONE
                          for j in range(1, Z.n + 1) if j not in coords_hit)
            if not escaped:
                report["ok"] = False
                report["violations"].append(
                    {
                        "component": ci,
                        "location": hit.location,
                        "coordinates": coords_hit,
                        "detail": "lies in a codimension->=2 face of the cube",
                    }
                )
    return report


def _divisor_locations_equal(a, b):
    if a.is_exact and b.is_exact:
        if (a.location is INF) != (b.location is INF):
            return False
        if a.location is INF:
            return True
        return a.location == b.location
    if a.is_exact != b.is_exact:
        if a.location is INF or b.location is INF:
            return False
        exact, cluster = (a, b) if a.is_exact else (b, a)
        # exact location is a root of the cluster factor iff (x - loc) | factor
        return cluster.factor is not None and cluster.factor.eval_exact(exact.location).is_zero()
    if a.factor is not None and b.factor is not None:
        if a.factor == b.factor:
            return a.location.overlaps(b.location)
        if a.factor.gcd(b.factor).degree == 0:
            return False
    return a.location.overlaps(b.location)


def face_vanishing_profile(Z):
    """Which facet restrictions vanish as cycles, as a {(i, value): bool}
    table, from the restrictions kept on Z (``_facets``)."""
    if not Z.is_curve_level:
        raise ChowregError("facet profile applies to curve-level precycles")
    return {(i, value): not _reduce_components(points)
            for i, value, points in _facets(Z, mp.mp.prec)[0]}


def is_normalized(Z):
    """All 0-facets vanish and all oo-facets except possibly the last."""
    table = face_vanishing_profile(Z)
    for (i, value), vanishes in table.items():
        if value == FACET_ZERO and not vanishes:
            return False
        if value == FACET_INF and i < Z.n and not vanishes:
            return False
    return True


def _join_pullback_curve(value, order):
    """The fiber of the coordinate-join map over ``value``: solving
    join(t, z) = value gives the curve (t, value*(t-1)/(t-value))."""
    t = RationalFunction.t(order)
    vv = RationalFunction.constant(value)
    one = RationalFunction.from_rational(1, order)
    return t, (vv * (t - one)) / (t - vv)


def _as_exact_coords(pt):
    if not pt.is_exact() or any(v is INF for v in pt.coords):
        raise ChowregError(
            "normalization correction needs exact finite facet points; "
            "got a numeric or infinite location"
        )
    return pt.coords


def normalize(Z):
    """Bloch's normalization operator via the explicit low-cube formulas.

    Requires every 0-facet restriction to vanish already (the degenerate-cycle
    trick that would remove 0-facets is not implemented); kills the oo-facets
    below the top one by subtracting join-pullback curves.
    """
    if Z.is_empty():
        return Z
    if not Z.is_curve_level:
        raise ChowregError("normalize applies to curve-level precycles")
    table = face_vanishing_profile(Z)
    for i in range(1, Z.n + 1):
        if not table[(i, FACET_ZERO)]:
            raise ChowregError(
                "normalize requires a 0-facet-free input "
                f"(facet ({i}, 0) does not vanish)"
            )
    if Z.n == 2:
        extra = []
        for pt in _reduce_components(face_restriction(Z, 1, FACET_INF)):
            (a,) = _as_exact_coords(pt)
            z1, z2 = _join_pullback_curve(a, Z.order)
            extra.append(CurveComponent(2, (z1, z2), -pt.mult))
        result = Precycle(Z.n, Z.p, list(Z.components) + extra, order=Z.order, name=Z.name)
    elif Z.n == 3:
        extra = []
        for pt in _reduce_components(face_restriction(Z, 2, FACET_INF)):
            a, b = _as_exact_coords(pt)
            z2, z3 = _join_pullback_curve(b, Z.order)
            extra.append(CurveComponent(
                3, (RationalFunction.constant(a), z2, z3), -pt.mult))
        for pt in _reduce_components(face_restriction(Z, 1, FACET_INF)):
            a, b = _as_exact_coords(pt)
            z1, z2 = _join_pullback_curve(a, Z.order)
            extra.append(CurveComponent(
                3, (z1, z2, RationalFunction.constant(b)), -pt.mult))
            w2, w3 = _join_pullback_curve(b, Z.order)
            extra.append(CurveComponent(
                3, (RationalFunction.constant(a), w2, w3), pt.mult))
        result = Precycle(Z.n, Z.p, list(Z.components) + extra, order=Z.order, name=Z.name)
    elif Z.n == 1:
        result = Z
    else:
        raise ChowregError("normalize is implemented for cubes up to n = 3")
    proper = check_face_proper(result)
    if not proper["ok"]:
        raise PropernessError(
            "normalization corrections violate face properness: "
            f"{proper['violations']}"
        )
    if not is_normalized(result):
        raise ChowregError("normalization did not reach the normalized facet profile")
    return result


def double_facet_terms(Z, i, a_value, j, b_value):
    """Symbolic two-step facet data for the boundary-squared identity.

    For i < j, restricting at facet (j, b) then (i, a) must equal restricting
    at (i, a) then (j-1, b) with the boundary signs making the two cancel.
    Each term is keyed by the exact locus of parameters where coordinate i
    takes value a AND coordinate j takes value b; the multiplicity is the
    order of the locus gcd.  Returns a list of (locus_key, signed_mult).
    """
    if not (1 <= i < j <= Z.n):
        raise ChowregError("need 1 <= i < j <= n")
    out = []
    for ci, comp in enumerate(Z.components):
        fi, fj = comp.coords[i - 1], comp.coords[j - 1]
        if fi.is_constant() or fj.is_constant():
            continue
        pi = fi.num if a_value == FACET_ZERO else fi.den
        pj = fj.num if b_value == FACET_ZERO else fj.den
        if pi.degree < 1 or pj.degree < 1:
            finite = None
        else:
            g = pi.monic().gcd(pj.monic())
            finite = g if g.degree > 0 else None
        if finite is not None:
            out.append(((ci, "finite", finite.coeffs), finite.degree))
        # both coordinates can also meet the facet pair at t = infinity
        di = fi.num.degree - fi.den.degree
        dj = fj.num.degree - fj.den.degree
        hits_i = (di < 0 and a_value == FACET_ZERO) or (di > 0 and a_value == FACET_INF)
        hits_j = (dj < 0 and b_value == FACET_ZERO) or (dj > 0 and b_value == FACET_INF)
        if hits_i and hits_j:
            out.append(((ci, "inf"), min(abs(di), abs(dj))))
    return out


def boundary_squared_terms(Z):
    """All signed double-facet terms of the boundary applied twice.

    Route one restricts the later facet first (coordinate indices unshifted);
    route two restricts the earlier facet first, shifting the later index down
    by one.  The signed sum cancels pairwise when the sign bookkeeping of the
    boundary operator is right; the total is returned for tests to assert
    emptiness.
    """
    totals = {}
    for i in range(1, Z.n + 1):
        for j in range(i + 1, Z.n + 1):
            for a_value in (FACET_ZERO, FACET_INF):
                for b_value in (FACET_ZERO, FACET_INF):
                    terms = double_facet_terms(Z, i, a_value, j, b_value)
                    # later-first: sign_j(at level n) * sign_i(at level n-1)
                    s1 = _facet_sign(j, b_value) * _facet_sign(i, a_value)
                    # earlier-first: sign_i(at level n) * sign_{j-1}(at level n-1)
                    s2 = _facet_sign(i, a_value) * _facet_sign(j - 1, b_value)
                    for key, mult in terms:
                        totals[key] = totals.get(key, 0) + (s1 + s2) * mult
    return {k: v for k, v in totals.items() if v != 0}


def weil_symbol_product(Z):
    """For a curve precycle in the 2-cube: the exact product over its boundary
    points of (coordinate value)^multiplicity, which closure forces to 1."""
    if Z.n != 2 or not Z.is_curve_level:
        raise ChowregError("the reciprocity product is defined for curves in the 2-cube")
    b = boundary(Z)
    acc = CyclotomicNumber.one(Z.order)
    for pt in b.components:
        (v,) = pt.coords
        if not isinstance(v, CyclotomicNumber):
            raise ChowregError("reciprocity product needs exact boundary points")
        acc = acc * v ** pt.mult
    return acc
