"""Built-in cycles, shipped as cycle-definition text and parsed on demand."""

from __future__ import annotations

from .errors import ChowregError
from .parser import parse_cycle_file

FIXTURES = {
    "z1_totaro": """\
field cyclotomic(1)
cycle z1_totaro n=3 p=2
component mult=1 1-1/t ; 1-t ; 1/t
""",
    "petras_zeta5": """\
field cyclotomic(5)
cycle petras_zeta5 n=3 p=2
component mult=1 1-1/t ; 1-t ; 1/t
component mult=1 1-zeta/t ; 1-t ; 1/t^5
component mult=1 1-zeta^4/t ; 1-t ; 1/t^5
""",
    "mccarthy_counterexample": """\
field cyclotomic(4)
cycle mccarthy_counterexample n=3 p=2
component mult=1 i*t-1 ; -((1+t)*(1+3*t))/((1+i*t)*(1-2*t)) ; (i*t-1)/(3+t)
""",
    "graph_4_2": """\
field cyclotomic(1)
cycle graph_4_2 n=2 p=1
component mult=1 t ; (t-4)/(t-2)
""",
    "z_minus1": """\
field cyclotomic(1)
cycle z_minus1 n=3 p=2
component mult=1 1+1/t ; 1-t ; 1/t
""",
    "totaro_s2_plus_i": """\
field cyclotomic(4)
cycle totaro_s2_plus_i n=3 p=2
component mult=1 1-1/(t^2+i) ; 1-(t^2+i) ; 1/(t^2+i)
""",
}


def _dilog_cycles(N, name, ks):
    return parse_cycle_file(
        f"field cyclotomic({N})\ncycle {name} n=3 p=2\n" + "".join(
            f"component mult=1 1-zeta^{k}/t ; 1-t ; 1/t^{N}\n" for k in ks))[0]


def dilog_cycle(N, k):
    """Z_{N,k} = (1 - zeta^k/t ; 1 - t ; 1/t^N) over Q(zeta_N), a closed
    curve in the 3-cube whose regulator is N Li_2(zeta^k) modulo
    (2 pi i)^2; Totaro's cycle is Z_{1,0}."""
    return _dilog_cycles(N, f"dilog_{N}_{k}", (k,))


def dilog_pair(N, k):
    """Z_{N,k} + Z_{N,N-k}: the imaginary parts N Cl_2(2 pi k / N) of the
    two members cancel, and the sum is torsion."""
    return _dilog_cycles(N, f"dilog_pair_{N}_{k}", (k, N - k))


def fixture_names():
    return sorted(FIXTURES)


def load_fixture(name):
    """The named built-in cycle as a Precycle."""
    if name not in FIXTURES:
        raise ChowregError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    return parse_cycle_file(FIXTURES[name])[0]
