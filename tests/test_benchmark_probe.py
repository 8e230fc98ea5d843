"""The names the benchmark's probe (perfbench/probe.py) wraps still exist.

The probe patches hslag functions and methods by name, so a rename in
src/ breaks the benchmark and nothing else.  These tests read the probe's
source, without importing it from its directory, and check its layer names
against the package.
"""

import importlib
import inspect
import os
import types

import pytest

from hslag import operators, reduction, weinstein
from hslag.models import TorusModel
from hslag.reduction import build_context, projected_solve, random_frame_state

PROBE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "probe.py")


@pytest.fixture(scope="module")
def probe():
    module = types.ModuleType("perfbench_probe")
    module.__file__ = PROBE
    with open(PROBE) as handle:
        exec(compile(handle.read(), PROBE, "exec"), module.__dict__)
    return module


def test_function_layers_resolve(probe):
    for name in probe.FUNCTION_LAYERS:
        home, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"hslag.{home}"), attr, None)), name


def test_method_layers_are_class_attributes(probe):
    for name, owner, attr in probe.METHOD_LAYERS:
        assert callable(owner.__dict__.get(attr)), name


def test_volume_is_one_object_in_every_module():
    volume = weinstein.graph_volume_and_gradient
    assert reduction.graph_volume_and_gradient is volume
    assert operators.graph_volume_and_gradient is volume


def test_volume_flag_is_keyword_only():
    """The probe splits volume calls by need_gradient, read from the call's
    kwargs (or a fifth positional argument the volume does not have), so
    the flag can only be passed by keyword."""
    parameters = inspect.signature(weinstein.graph_volume_and_gradient).parameters
    assert parameters["need_gradient"].kind is inspect.Parameter.KEYWORD_ONLY
    assert len(parameters) == 4


def test_geometric_residual_calls_the_defect_by_its_bound_name(probe, monkeypatch):
    """One certificate is one `hs_residual` call through reduction's name,
    so the probe's hs_residual layer counts it."""
    ctx = build_context(TorusModel((1.0, 1.3), grid_size=16))
    state = projected_solve(ctx, 0.02, random_frame_state(ctx, seed=5))
    calls = []
    residual = reduction.hs_residual

    def counting(*args, **kwargs):
        calls.append(1)
        return residual(*args, **kwargs)

    monkeypatch.setattr(reduction, "hs_residual", counting)
    reduction.geometric_residual(ctx, state)
    assert len(calls) == 1
    monkeypatch.undo()
    with probe.Probe(tracing=True) as traced:
        reduction.geometric_residual(ctx, state)
    totals = traced.layer_totals()
    assert totals["reduction.geometric_residual"]["calls"] == 1
    assert totals["geomcore.hs_residual"]["calls"] == 1
    assert reduction.hs_residual is residual
