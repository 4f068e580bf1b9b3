"""Numerical Abel-Jacobi regulators for parametrized higher Chow cycles.

The package computes regulator values of curve- and point-level cycles in the
algebraic cube over cyclotomic fields by tracing perturbed branch-cut loci,
integrating dilogarithm-type line integrals along them, and counting signed
cut crossings, with exact field arithmetic underneath and error radii on
every reported number.
"""

from .cycles import (
    CurveComponent,
    PointComponent,
    Precycle,
    boundary,
    check_face_proper,
    face_vanishing_profile,
    is_closed,
    is_degenerate,
    is_normalized,
    normalize,
)
from .errors import (
    ChowregError,
    ConvergenceError,
    CycleParseError,
    PrecisionError,
    PropernessError,
    ScheduleError,
)
from .field import CyclotomicNumber, Rational, cyclo_arith, embed, promote_pair
from .fixtures import fixture_names, load_fixture
from .funcfield import (
    INF,
    DivisorPoint,
    Poly,
    RationalFunction,
    derivative,
    join_coordinates,
    rf_arith,
    roots_numeric,
)
from .numeric import ComplexApprox, pi_const, workprec
from .parser import parse_cycle_file, serialize_cycles
from .regulator import (
    RegulatorValue,
    TorsionResult,
    intersection_number_n2,
    phase_independence_check,
    quadrature,
    reg_n1,
    reg_n3,
    regulator,
    torsion_order,
)
from .special import BranchSpec, li2, log_eps
from .wavefront import (
    PhaseSchedule,
    TracedPath,
    WavefrontIntersection,
    admissible,
    find_pair_intersections,
    make_schedule,
    search_admissible,
    search_schedule,
    trace_wavefront,
)

__version__ = "0.1.0"
