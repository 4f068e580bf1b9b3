"""Tests of the benchmark's own logic: span arithmetic, failure accounting
and oracle checks.  Run with ``python -m pytest bench/tests``."""

import importlib
import sys
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import chowreg  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from chowreg import ComplexApprox, PrecisionError  # noqa: E402


def _span(id, name, parent, start, end):
    s = tracing.Span(id, name, parent, start)
    s.end = end
    return s


def test_self_time_subtracts_child_coverage():
    parent = _span(0, "p", None, 0.0, 10.0)
    # overlapping children cover [1, 5]; the last one is clipped at 10
    kids = [_span(1, "a", 0, 1.0, 3.0), _span(2, "b", 0, 2.0, 5.0),
            _span(3, "c", 0, 9.0, 12.0)]
    assert tracing.self_seconds(parent, kids) == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_seconds(parent, []) == 10.0


def test_layer_metrics_split_by_parent_and_self_time():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    with tr.span("op"):
        with tr.span("wavefront.admissible") as adm:
            with tr.span("wavefront.trace_wavefront"):
                tr.count("funcfield.residual")
            adm.meta["ok"] = False
        with tr.span("regulator.reg_n3"):
            with tr.span("wavefront.trace_wavefront"):
                tr.count("funcfield.residual")
                tr.count("funcfield.residual")
    m = tracing.layer_metrics(tr.spans, [10.0])
    assert m["wavefront.trace_wavefront.calls"] == 2
    assert m["wavefront.trace_wavefront.s.admissible"] == 1.0
    assert m["wavefront.trace_wavefront.s.reg_n3"] == 1.0
    assert m["wavefront.admissible.s"] == 3.0
    assert m["wavefront.admissible.self_s"] == 2.0
    assert m["wavefront.admissible.reject_share"] == 1.0
    assert m["funcfield.residual.calls"] == 3
    assert m["funcfield.residual.calls.admissible"] == 1
    assert m["funcfield.residual.calls.quadrature"] == 0


def test_instrument_wraps_every_binding_and_restores():
    reg_mod = importlib.import_module("chowreg.regulator")
    wf_mod = importlib.import_module("chowreg.wavefront")
    before = (reg_mod.admissible, wf_mod.admissible, chowreg.regulator,
              reg_mod.quadrature, mp.polyroots)
    with tracing.instrument(tracing.Tracer()):
        assert reg_mod.admissible is wf_mod.admissible is chowreg.admissible
        assert reg_mod.admissible is not before[0]
        assert chowreg.regulator is reg_mod.regulator is not before[2]
        assert reg_mod.quadrature is not before[3]
        assert mp.polyroots is not before[4]
    assert (reg_mod.admissible, wf_mod.admissible, chowreg.regulator,
            reg_mod.quadrature, mp.polyroots) == before


class _Value:
    def __init__(self, mid, radius):
        self.value = ComplexApprox(mp.mpc(mid), radius)


def _sweep_outcome(monkeypatch, behaviour):
    monkeypatch.setattr(chowreg, "regulator", behaviour)
    op = workloads.totaro_precision_sweep({"z1_totaro": None}, 0, None)[0]
    return workloads.run_op(op, clock=lambda: 0.0)


def test_raw_zero_division_counts_as_failed(monkeypatch):
    def crash(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    o = _sweep_outcome(monkeypatch, crash)
    assert not o.passed and not o.wrong
    assert o.error == "ZeroDivisionError"


def test_chowreg_error_passes_on_sweep(monkeypatch):
    def refuse(*args, **kwargs):
        raise PrecisionError("needs more bits")

    o = _sweep_outcome(monkeypatch, refuse)
    assert o.passed and o.error == "PrecisionError"


def test_ball_missing_its_oracle_fails(monkeypatch):
    with mp.workprec(200):
        target = mp.pi ** 2 / 6
        near = _Value(target + mp.mpf("1e-12"), 1e-10)
        far = _Value(target + mp.mpf("1e-10"), 1e-12)
    assert _sweep_outcome(monkeypatch, lambda *a, **k: near).passed
    o = _sweep_outcome(monkeypatch, lambda *a, **k: far)
    assert not o.passed and o.wrong
    assert "misses" in o.error


def test_regulator_op_fails_on_any_exception(monkeypatch):
    def refuse(*args, **kwargs):
        raise PrecisionError("needs more bits")

    monkeypatch.setattr(chowreg, "regulator", refuse)
    (op,) = workloads.totaro_256({"z1_totaro": None}, 0, None)
    o = workloads.run_op(op, clock=lambda: 0.0)
    assert not o.passed and o.error == "PrecisionError"


def test_nesting_check_is_independent_of_the_library():
    sched = chowreg.PhaseSchedule(0.3, (0.15, 0.001, 0.0))
    assert not workloads.is_b_nested(sched, mp.mpf("0.3"), 3)
    nested = chowreg.make_schedule(0.3, 3, 0.5, precision_bits=128)
    assert workloads.is_b_nested(nested, mp.mpf("0.3"), 3)


def test_inputs_repeat_for_a_seed():
    fx = {"mccarthy_counterexample": None}

    def phases(seed, index=0):
        ops = workloads.cycle_ops("mccarthy_admissible_128", fx, seed, index)
        return [op.arg for op in ops if op.arg is not None]

    assert phases(7) == phases(7) != phases(8)
    assert phases(7) != phases(7, index=1)
    assert all(0.05 <= e <= 0.4 for e in phases(7))
