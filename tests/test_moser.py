"""Moser normalization flow: primitive, ODE integration, pullback defects."""

import numpy as np
import pytest

import hslag.moser

from oracles import ConstantForm, origin_jacobian, pullback_values, refinement_orders

from hslag.errors import ChartDomainError, ConfigError, RankDeficiencyError
from hslag.geomcore import standard_symplectic_matrix
from hslag.moser import (
    QuadraticPerturbedForm,
    flow_map,
    homotopy_primitive,
    moser_flow,
    moser_vector_field,
)


@pytest.fixture(scope="module")
def form():
    return QuadraticPerturbedForm(2, c=0.1)


def test_perturbed_form_shape_and_antisymmetry(form, rng):
    z = rng.normal(size=(6, 4)) * 0.4
    w = form.value(z)
    assert w.shape == (6, 4, 4)
    assert np.max(np.abs(w + np.swapaxes(w, -1, -2))) < 1e-14
    assert np.max(np.abs(form.value(np.zeros(4)) - standard_symplectic_matrix(2))) == 0.0


def test_homotopy_primitive_differentiates_to_form_difference(form, rng):
    z = rng.normal(size=(8, 4)) * 0.4
    h = 1e-5
    dzeta = np.empty((8, 4, 4))
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = h
        dzeta[:, mu] = (homotopy_primitive(form, z + e) - homotopy_primitive(form, z - e)) / (
            2 * h
        )
    ext = dzeta - np.swapaxes(dzeta, -1, -2)
    target = standard_symplectic_matrix(2) - form.value(z)
    assert np.max(np.abs(ext - target)) < 1e-9


def test_primitive_vanishes_to_second_order(form):
    assert np.max(np.abs(homotopy_primitive(form, np.zeros(4)))) == 0.0
    z = np.array([0.3, -0.1, 0.2, 0.05])
    big = np.max(np.abs(homotopy_primitive(form, z)))
    small = np.max(np.abs(homotopy_primitive(form, 0.1 * z)))
    # quadratic leading order: scaling by 0.1 shrinks by ~1e-3 (cubic term here)
    assert small < 2e-3 * big


def test_identity_form_flows_to_identity():
    rep = moser_flow(ConstantForm(2), 2)
    assert np.max(np.abs(rep.images - rep.samples)) == 0.0
    assert rep.pullback_defect < 1e-10


def test_perturbed_flow_normalizes(form):
    rep = moser_flow(form, 2)
    assert rep.pullback_defect <= 1e-6
    assert rep.origin_defect == 0.0
    assert rep.identity_defect <= 1e-8
    assert rep.closedness_defect <= 1e-8


def test_pullback_reuses_the_converged_images(form, monkeypatch):
    """The pullback takes the images the step doubling converged on: 16 and
    32 steps, one stacked flow of the 2 x 4 neighbours of the samples and of
    the origin for d phi, and the origin itself, 4 time-1 maps in all.  The
    images equal their recomputation, and the pullback and identity defects
    equal those of the per-direction oracles, bit for bit."""
    calls = []
    flow = hslag.moser.flow_map

    def counting(*args, **kwargs):
        calls.append(1)
        return flow(*args, **kwargs)

    monkeypatch.setattr(hslag.moser, "flow_map", counting)
    rep = moser_flow(form, 2)
    assert len(calls) == 4
    monkeypatch.undo()
    images = flow_map(form, rep.samples, rep.steps)
    assert rep.images.tobytes() == images.tobytes()
    pullback = pullback_values(form, rep.samples, images, rep.steps)
    om0 = standard_symplectic_matrix(2)
    assert rep.pullback_defect == float(np.max(np.abs(pullback - om0)))
    jac = origin_jacobian(form, 2, rep.steps)
    assert rep.identity_defect == float(np.max(np.abs(jac - np.eye(4))))
    assert rep.steps == 32


def test_refinement_order_at_least_three(form):
    orders = refinement_orders(form, 2)
    assert all(o >= 3.0 for o in orders)


def test_rejects_non_closed_form():
    class ConformalOnly:
        # (1 + c|z|^2) omega0 without the closing correction: not closed
        def value(self, points):
            z = np.asarray(points, dtype=float)
            r2 = np.einsum("...m,...m->...", z, z)
            return (1.0 + 0.1 * r2)[..., None, None] * standard_symplectic_matrix(2)

    with pytest.raises(ConfigError):
        moser_flow(ConformalOnly(), 2)


def test_rejects_wrong_origin_value():
    class Doubled:
        def value(self, points):
            z = np.asarray(points)
            shape = z.shape[:-1] + (4, 4)
            return np.broadcast_to(2.0 * standard_symplectic_matrix(2), shape).copy()

    with pytest.raises(ConfigError):
        moser_flow(Doubled(), 2)


def test_degenerate_interpolation_raises():
    form = QuadraticPerturbedForm(2, c=-1.0)
    z = np.array([[1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(RankDeficiencyError):
        moser_vector_field(form, 1.0, z)


def test_trajectory_ball_exit_raises(form):
    z = np.array([[0.4, 0.0, 0.0, 0.0]])
    with pytest.raises(ChartDomainError):
        flow_map(form, z, steps=8, radius=0.1)
