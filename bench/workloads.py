"""The benchmark's workloads: the operations of one cycle of each, and the
oracle every result is checked against.

Every oracle is computed here, independently of the pipeline it checks:
pi^2/6 and 7pi^2/30 from mpmath at the working precision plus a margin, the
torsion orders and certificates as exact fractions, tan(eps) for the
equal-phase triple point, and the nesting inequalities of a phase schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

import chowreg
from chowreg import ChowregError, PhaseSchedule

ORACLE_GUARD_BITS = 64


@dataclass
class Op:
    """One operation: ``call()`` runs it, ``check(result)`` returns None when
    the result meets its oracle and a reason otherwise.  An exception that is
    an instance of ``allowed`` passes; any other exception fails.  Only ops
    with ``timed`` contribute an ``op_s`` sample."""

    name: str
    call: Callable
    check: Callable
    allowed: tuple = ()
    timed: bool = True
    arg: object = None  # the drawn input, where the seed draws one


@dataclass
class Outcome:
    op: str
    seconds: float
    timed: bool
    passed: bool
    wrong: bool = False   # a result came back and missed its oracle
    error: str = ""       # exception class, or why the check failed


def run_op(op, clock):
    """Run one operation and judge it.  Any exception counts as a failure
    unless the op allows its class."""
    t0 = clock()
    try:
        result = op.call()
    except Exception as exc:  # the benchmark must record every failure kind
        seconds = clock() - t0
        passed = isinstance(exc, op.allowed)
        return Outcome(op.name, seconds, op.timed, passed,
                       error=type(exc).__name__)
    seconds = clock() - t0
    reason = op.check(result)
    if reason is None:
        return Outcome(op.name, seconds, op.timed, True)
    return Outcome(op.name, seconds, op.timed, False, wrong=True, error=reason)


def ball_misses(value, target, bits):
    """None if the ball ``value`` (a ComplexApprox) contains ``target()``,
    evaluated ORACLE_GUARD_BITS above the working precision; else a reason."""
    with mp.workprec(bits + ORACLE_GUARD_BITS):
        err = abs(mp.mpc(value.value) - target())
        if err <= value.radius:
            return None
        return f"ball misses oracle: error {mp.nstr(err, 3)} > radius {value.radius:.3g}"


def pi2_over_6():
    return mp.pi ** 2 / 6


def petras_target():
    return 7 * mp.pi ** 2 / 30


def _regulator_torsion_op(Z, bits, seed, target, order, certificate):
    def call():
        with mp.workprec(bits):
            v = chowreg.regulator(Z, precision_bits=bits, tol=1e-8, seed=seed)
            tr = chowreg.torsion_order(v, max_order=200, tol=1e-6)
        return v, tr

    def check(result):
        v, tr = result
        miss = ball_misses(v.value, target, bits)
        if miss:
            return miss
        if tr.order != order or tr.certificate != certificate:
            return f"torsion {tr.order}, {tr.certificate}; want {order}, {certificate}"
        return None

    return Op(f"regulator+torsion@{bits}", call, check)


def _sweep_op(Z, bits, seed, timed):
    def call():
        with mp.workprec(bits):
            return chowreg.regulator(Z, precision_bits=bits, seed=seed)

    return Op(f"regulator@{bits}", call,
              lambda v: ball_misses(v.value, pi2_over_6, bits),
              allowed=(ChowregError,), timed=timed)


def _equal_phase_op(Z, eps, bits):
    def call():
        with mp.workprec(bits):
            return chowreg.admissible(Z, PhaseSchedule(1, (eps, eps, eps)),
                                      precision_bits=bits)

    def check(rep):
        if rep.ok:
            return f"equal phase {eps!r} accepted"
        with mp.workprec(bits):
            tan = mp.tan(mp.mpf(eps))
            dist = [abs(mp.mpc(f.witness.value) - tan) for f in rep.failures
                    if f.kind == "triple" and f.witness is not None]
            if not dist:
                return f"equal phase {eps!r}: no triple witness"
            if min(dist) >= mp.mpf("1e-6"):
                return f"triple witness off tan({eps!r}) by {mp.nstr(min(dist), 3)}"
        return None

    return Op("admissible-equal-phase", call, check, arg=eps)


def is_b_nested(schedule, bound, n):
    """eps_1 < bound and 0 < eps_{k+1} < exp(-1/eps_k), compared as logs."""
    p = [mp.mpf(x) for x in schedule.phases]
    if len(p) != n or not (0 < p[0] < bound):
        return False
    return all(0 < b and mp.log(b) < -1 / a for a, b in zip(p, p[1:]))


def _search_op(Z, eps_start, seed, bits):
    def call():
        with mp.workprec(bits):
            return chowreg.search_schedule(Z, eps_start, seed=seed,
                                           precision_bits=bits)

    def check(s):
        with mp.workprec(bits):
            if is_b_nested(s, mp.mpf(eps_start), Z.n):
                return None
        return f"schedule {s.describe()} is not nested below {eps_start}"

    return Op("search_schedule", call, check)


def totaro_256(fx, seed, rng):
    return [_regulator_torsion_op(fx["z1_totaro"], 256, seed, pi2_over_6,
                                  24, Fraction(-1, 24))]


def petras_128(fx, seed, rng):
    return [_regulator_torsion_op(fx["petras_zeta5"], 128, seed, petras_target,
                                  120, Fraction(-7, 120))]


MCCARTHY_SCHEDULES = 5


def mccarthy_admissible_128(fx, seed, rng):
    Z = fx["mccarthy_counterexample"]
    ops = [_equal_phase_op(Z, rng.uniform(0.05, 0.4), 128)
           for _ in range(MCCARTHY_SCHEDULES)]
    return ops + [_search_op(Z, 0.3, seed, 128)]


# 160 and 192 bits are left out for run time; see bench/README.md.
SWEEP_BITS = (53, 64, 80, 96, 128)
SWEEP_TIMED_BITS = (96, 128)  # the precisions that evaluate today


def totaro_precision_sweep(fx, seed, rng):
    return [_sweep_op(fx["z1_totaro"], b, seed, b in SWEEP_TIMED_BITS)
            for b in SWEEP_BITS]


@dataclass
class Workload:
    fixtures: tuple
    cycle: Callable  # (fixtures, seed, rng) -> [Op]


WORKLOADS = {
    "totaro_256": Workload(("z1_totaro",), totaro_256),
    "petras_128": Workload(("petras_zeta5",), petras_128),
    "mccarthy_admissible_128": Workload(("mccarthy_counterexample",),
                                        mccarthy_admissible_128),
    "totaro_precision_sweep": Workload(("z1_totaro",), totaro_precision_sweep),
}


def cycle_ops(name, fixtures, seed, index):
    """The operations of cycle ``index`` of a run; the same (seed, index)
    always gives the same inputs."""
    rng = random.Random(f"{name}:{seed}:{index}")
    return WORKLOADS[name].cycle(fixtures, seed, rng)
