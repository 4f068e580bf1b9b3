from __future__ import annotations

import importlib

import pytest

from chowreg import (
    CurveComponent,
    CyclotomicNumber,
    Precycle,
    RationalFunction,
    load_fixture,
)


@pytest.fixture(scope="session")
def z1():
    return load_fixture("z1_totaro")


@pytest.fixture(scope="session")
def petras():
    return load_fixture("petras_zeta5")


@pytest.fixture(scope="session")
def mccarthy():
    return load_fixture("mccarthy_counterexample")


@pytest.fixture(scope="session")
def graph_4_2():
    return load_fixture("graph_4_2")


@pytest.fixture(scope="session")
def z_minus1():
    return load_fixture("z_minus1")


@pytest.fixture(scope="session")
def z_square():
    """Closed normalized curve (1 - 1/t, 1 - t^2, t^2); its value is
    2*Li2(1)/2 - ... = -pi^2/6, a handy second torsion-24 fixture."""
    t = RationalFunction.t(1)
    one = RationalFunction.from_rational(1, 1)
    return Precycle(3, 2,
                    [CurveComponent(3, (one - 1 / t, one - t * t, t * t), 1)],
                    order=1, name="z_square")


@pytest.fixture(scope="session")
def graph_1_m3():
    """Curve (t, (t-1)/(t+3)) in the 2-cube: one transverse cut crossing."""
    t = RationalFunction.t(1)
    return Precycle(2, 1,
                    [CurveComponent(2, (t, (t - 1) / (t + 3)), 1)],
                    order=1, name="graph_1_m3")


@pytest.fixture
def trace_log(monkeypatch):
    """``trace_log(name)`` returns a list that gains, for every
    ``trace_wavefront`` call, whether it ran inside the ``search_admissible``
    bound in the module ``name``."""
    import chowreg.wavefront as wf

    log = []
    searching = []
    trace = wf.trace_wavefront

    def counting_trace(*args, **kwargs):
        log.append(bool(searching))
        return trace(*args, **kwargs)

    def watch(name):
        module = importlib.import_module(name)
        search = module.search_admissible

        def marking_search(*args, **kwargs):
            searching.append(True)
            try:
                return search(*args, **kwargs)
            finally:
                searching.pop()

        monkeypatch.setattr(module, "search_admissible", marking_search)
        return log

    monkeypatch.setattr(wf, "trace_wavefront", counting_trace)
    return watch
