"""The cubical cycle data model: precycles, face properness, the boundary
operator, degeneracy detection, and the normalization operator.

Cycle components live in the algebraic n-cube (P^1 minus {1})^n with facets at
coordinate values 0 and oo.  Curve-level components are rational
parametrizations t -> (f_1(t), ..., f_n(t)); point-level components are
coordinate tuples.  The boundary operator restricts to facets with the
alternating sign convention sum_i (-1)^i (facet_i_at_0 - facet_i_at_oo).

Escape rule used throughout: a candidate facet point is discarded exactly when
some remaining coordinate equals 1, because the point then leaves the open
cube.  For numerically-clustered parameters that decision is made exactly, by
gcd against the cluster's defining squarefree factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .errors import ChowregError, PrecisionError, PropernessError
from .field import CyclotomicNumber
from .funcfield import INF, DivisorPoint, RationalFunction
from .numeric import ComplexApprox, workprec

FACET_ZERO = "0"
FACET_INF = "inf"
CLOSEDNESS_ESCALATIONS = 2


@dataclass(frozen=True)
class CurveComponent:
    """A parametrized curve t -> (f_1(t), ..., f_n(t)) with multiplicity."""

    n: int
    coords: tuple
    mult: int

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
    from .field import embed

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


def _value_at(comp, j, location):
    """Coordinate j of the component at a parameter location."""
    return comp.coords[j - 1].eval(location)


def _exact_status_on_factor(f, factor):
    """Classify f's values on the roots of an exact squarefree factor.

    Returns a dict with booleans: all_one / none_one / all_facet / none_facet.
    Mixed cases (the factor splits) are reported so callers can refuse or
    refine; the fixtures never hit them.
    """
    num, den = f.num, f.den
    diff = num - den  # f = 1 exactly at roots of num - den
    g_one = factor.gcd(diff) if not diff.is_zero() else factor
    g_zero = factor.gcd(num)
    g_pole = factor.gcd(den)
    deg = factor.degree
    return {
        "all_one": (not diff.is_zero() and g_one.degree == deg) or diff.is_zero(),
        "none_one": (not diff.is_zero()) and g_one.degree == 0,
        "one_part": g_one,
        "all_facet": g_zero.degree == deg or g_pole.degree == deg,
        "none_facet": g_zero.degree == 0 and g_pole.degree == 0,
    }


def face_restriction(Z, i, value):
    """The facet restriction as a list of PointComponents in the (n-1)-cube.

    Points where a remaining coordinate equals 1 escape the cube and are
    discarded; a remaining coordinate hitting 0 or oo is an improper face
    configuration and raises PropernessError.
    """
    if not Z.is_curve_level:
        raise ChowregError("face restriction is defined for curve-level precycles")
    out = []
    for comp in Z.components:
        for hit in _coordinate_hits(comp, i, value):
            others = [j for j in range(1, Z.n + 1) if j != i]
            if hit.is_exact:
                vals = [_value_at(comp, j, hit.location) for j in others]
                if any(isinstance(v, CyclotomicNumber) and v.is_one() for v in vals):
                    continue
                if any(v is INF or (isinstance(v, CyclotomicNumber) and v.is_zero())
                       for v in vals):
                    raise PropernessError(
                        f"improper face configuration at {hit.location}: a second "
                        "coordinate hits 0 or oo; run check_face_proper"
                    )
                out.append(PointComponent(Z.n - 1, tuple(vals),
                                          comp.mult * hit.multiplicity))
            else:
                statuses = [
                    _exact_status_on_factor(comp.coords[j - 1], hit.factor) for j in others
                ]
                if any(not s["all_facet"] and not s["none_facet"] for s in statuses):
                    raise PrecisionError(
                        "facet cluster splits on a 0/oo incidence; unsupported mixed case"
                    )
                if any(s["all_facet"] for s in statuses):
                    raise PropernessError(
                        "improper face configuration on a numeric cluster: a second "
                        "coordinate hits 0 or oo; run check_face_proper"
                    )
                if any(s["all_one"] for s in statuses):
                    continue
                if any(not s["none_one"] for s in statuses):
                    raise PrecisionError(
                        "facet cluster splits on a coordinate-1 incidence; "
                        "unsupported mixed case"
                    )
                vals = [_value_at(comp, j, hit.location) for j in others]
                out.append(PointComponent(Z.n - 1, tuple(vals),
                                          comp.mult * hit.multiplicity))
    return out


def boundary(Z):
    """The alternating facet sum, landing one cube level down."""
    if Z.is_empty():
        return Precycle(Z.n - 1, Z.p, [], order=Z.order)
    if not Z.is_curve_level:
        raise ChowregError("boundary is defined for curve-level precycles here")
    pieces = []
    for i in range(1, Z.n + 1):
        for value in (FACET_ZERO, FACET_INF):
            sign = _facet_sign(i, value)
            for pt in face_restriction(Z, i, value):
                pieces.append(PointComponent(pt.n, pt.coords, sign * pt.mult))
    return Precycle(Z.n - 1, Z.p, pieces, order=Z.order)


def is_closed(Z, precision_bits=None):
    """True iff the boundary reduces to the empty precycle.

    Numeric ambiguity escalates the working precision (two doublings) before
    raising, so a False answer is never a silent artifact of low precision.
    """
    if precision_bits is None:
        precision_bits = mp.mp.prec
    for attempt in range(CLOSEDNESS_ESCALATIONS + 1):
        bits = precision_bits * (2 ** attempt)
        try:
            with workprec(bits):
                return boundary(Z).is_empty()
        except PrecisionError:
            if attempt == CLOSEDNESS_ESCALATIONS:
                raise
    raise PrecisionError("closedness undecided")  # unreachable


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
    face, which a curve must miss).
    """
    report = {"ok": True, "violations": []}
    if not Z.is_curve_level:
        raise ChowregError("face properness applies to curve-level precycles")
    for ci, comp in enumerate(Z.components):
        locations = []  # (location-key, location, hit coordinate indices)
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
            loc = g[0][0].location
            remaining = [j for j in range(1, Z.n + 1) if j not in coords_hit]
            escaped = False
            for j in remaining:
                v = _value_at(comp, j, loc) if g[0][0].is_exact else None
                if v is None:
                    status = _exact_status_on_factor(comp.coords[j - 1], g[0][0].factor)
                    escaped = escaped or status["all_one"]
                elif isinstance(v, CyclotomicNumber) and v.is_one():
                    escaped = True
            if not escaped:
                report["ok"] = False
                report["violations"].append(
                    {
                        "component": ci,
                        "location": loc,
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
    """Which facet restrictions vanish as cycles, as a {(i, value): bool} table."""
    if not Z.is_curve_level:
        raise ChowregError("facet profile applies to curve-level precycles")
    table = {}
    for i in range(1, Z.n + 1):
        for value in (FACET_ZERO, FACET_INF):
            pts = face_restriction(Z, i, value)
            reduced = _reduce_components(pts)
            table[(i, value)] = len(reduced) == 0
    return table


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
