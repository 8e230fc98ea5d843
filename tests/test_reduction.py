"""Tests of the finite-dimensional reduction pipeline.

Oracles: the flat metric (exact stationary model with known volume), the
moment-map potentials of rigid frame motions, the factorization of the
reduced gradient through the kernel pairing, and the independent geometric
stationarity certificate on located tori.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import psi_matrices, xi_map

import hslag.operators
import hslag.reduction
import hslag.weinstein
from hslag.ambient import EuclideanMetric
from hslag.errors import ExactnessError, NonContractionError
from hslag.geomcore import ScalarField
from hslag.reduction import (
    FRAME_STEP,
    H_eval,
    SolveSettings,
    _integrate_exact_one_form,
    build_context,
    gradient_K,
    projected_solve,
    random_frame_state,
    second_variation_Q,
    variation_potential,
)

RADII = (1.0, 1.3)
T = 0.05  # the scale of the shared reduction problem


@pytest.fixture(scope="module")
def flat_ctx():
    return build_context(metric=EuclideanMetric(2))


def field_norm(ctx, values):
    return ctx.vol_norm(ScalarField(ctx.grid, values, check=False))


# ---------------------------------------------------------------------------
# the shared context: the flat operator stays a symbol
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("size", [32, 50, 64])
def test_build_context_is_solve_free(size, monkeypatch):
    calls = []

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)

        return wrapper

    volume = hslag.weinstein.graph_volume_and_gradient
    for module in (hslag.weinstein, hslag.operators, hslag.reduction):
        if module.__dict__.get("graph_volume_and_gradient") is volume:
            monkeypatch.setattr(module, "graph_volume_and_gradient", counting("volume", volume))
    eigensolve = hslag.operators.eigensolve
    monkeypatch.setattr(hslag.operators, "eigensolve", counting("eigensolve", eigensolve))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    ctx = build_context(grid_size=size)
    assert calls == []
    assert len(ctx.kernel_fields) == 7
    assert len(ctx.reduced_basis) == 6


# ---------------------------------------------------------------------------
# flat metric: the model is exactly stationary
# ---------------------------------------------------------------------------


def test_flat_metric_zero_solution(flat_ctx):
    frame = random_frame_state(flat_ctx, seed=3)
    state = projected_solve(flat_ctx, 0.05, frame)
    assert state.converged
    assert state.iterations == 1
    assert np.all(state.f.values == 0.0)
    target = (2.0 * np.pi) ** 2 * np.prod(RADII)
    assert abs(state.K_value - target) <= 1e-12 * target
    assert state.residual_norm <= flat_ctx.solve.tol


def test_flat_kernel_components_vanish(flat_ctx):
    for seed in (3, 4):
        frame = random_frame_state(flat_ctx, seed=seed)
        state = projected_solve(flat_ctx, 0.05, frame)
        assert np.max(np.abs(H_eval(flat_ctx, state))) <= 1e-12


def test_flat_volume_frame_independent(flat_ctx):
    values = [
        projected_solve(flat_ctx, 0.05, random_frame_state(flat_ctx, seed=s)).K_value
        for s in (3, 4)
    ]
    assert abs(values[0] - values[1]) <= 1e-11 * abs(values[0])


# ---------------------------------------------------------------------------
# perturbed metric: contraction, scaling, uniqueness
# ---------------------------------------------------------------------------


def test_perturbed_solve_invariants(reduction_ctx, base_reduction_state):
    state = base_reduction_state
    assert state.converged
    assert state.residual_norm <= reduction_ctx.solve.tol
    assert state.iterations <= 50
    assert state.kernel_overlap(reduction_ctx) <= 1e-10
    assert abs(float(np.mean(state.f.values))) <= 1e-12
    coeffs = H_eval(reduction_ctx, state)
    assert coeffs.shape == (len(reduction_ctx.reduced_basis),)
    assert np.max(np.abs(coeffs)) <= 1e-2


def test_solution_scales_linearly(reduction_ctx, base_reduction_state):
    frame = base_reduction_state.frame
    norms = {}
    for t in (0.08, 0.04, 0.02):
        st_ = projected_solve(reduction_ctx, t, frame)
        assert st_.residual_norm <= reduction_ctx.solve.tol
        norms[t] = reduction_ctx.vol_norm(st_.f)
    slope_high = np.log(norms[0.08] / norms[0.04]) / np.log(2.0)
    slope_low = np.log(norms[0.04] / norms[0.02]) / np.log(2.0)
    for slope in (slope_high, slope_low):
        assert 0.8 <= slope <= 2.0


def test_transverse_solution_unique(reduction_ctx, base_reduction_state):
    mesh = reduction_ctx.grid.meshgrid()
    seed_values = 0.01 * np.cos(3.0 * mesh[0]) * np.cos(mesh[1]) + 0.005 * np.sin(
        mesh[0] + 2.0 * mesh[1]
    )
    other = projected_solve(
        reduction_ctx,
        base_reduction_state.t,
        base_reduction_state.frame,
        init=ScalarField(reduction_ctx.grid, seed_values, check=False),
    )
    diff = field_norm(reduction_ctx, other.f.values - base_reduction_state.f.values)
    assert diff <= 1e-9


def test_warm_start_resolves_immediately(reduction_ctx, base_reduction_state):
    state = projected_solve(
        reduction_ctx,
        base_reduction_state.t,
        base_reduction_state.frame,
        init=base_reduction_state.f,
    )
    assert state.iterations <= 2


def test_non_contraction_raises(reduction_ctx, base_reduction_state):
    starved = dataclasses.replace(
        reduction_ctx, solve=SolveSettings(max_iterations=3)
    )
    with pytest.raises(NonContractionError):
        projected_solve(starved, 0.05, base_reduction_state.frame)


def test_roundoff_floor_raises_early(monkeypatch):
    """At grid 24 and t = 0.05 this frame's residual floors at about
    2.45e-12, above the 1e-12 tolerance; the solve stops at the floor instead
    of running its 200 iterations."""
    ctx = build_context(grid_size=24)
    calls = []
    residual = hslag.reduction.residual_P

    def counting(*args):
        calls.append(1)
        return residual(*args)

    monkeypatch.setattr(hslag.reduction, "residual_P", counting)
    with pytest.raises(NonContractionError, match="floor of 2.45"):
        projected_solve(ctx, T, random_frame_state(ctx, seed=5))
    assert len(calls) <= 11


@settings(max_examples=5)
@given(shift=st.floats(min_value=-0.3, max_value=0.3, allow_nan=False))
def test_volume_invariant_along_stabilizer(reduction_ctx, base_reduction_state, shift):
    delta = np.zeros(reduction_ctx.num_frame_coords)
    delta[reduction_ctx.stabilizer_indices[0]] = shift
    moved = projected_solve(
        reduction_ctx,
        base_reduction_state.t,
        base_reduction_state.frame.shifted(delta),
        init=base_reduction_state.f,
    )
    assert abs(moved.K_value - base_reduction_state.K_value) <= 1e-10 * abs(
        base_reduction_state.K_value
    )


@settings(max_examples=3)
@given(axis=st.integers(min_value=0, max_value=3))
def test_volume_periodic_in_base_point(reduction_ctx, base_reduction_state, axis):
    # the ambient metric has period 2*pi in each standard coordinate
    shift = np.zeros(2 * reduction_ctx.n)
    shift[axis] = 2.0 * np.pi
    moved_frame = dataclasses.replace(
        base_reduction_state.frame,
        base_point=base_reduction_state.frame.base_point + shift,
    )
    moved = projected_solve(
        reduction_ctx,
        base_reduction_state.t,
        moved_frame,
        init=base_reduction_state.f,
    )
    assert abs(moved.K_value - base_reduction_state.K_value) <= 1e-9 * abs(
        base_reduction_state.K_value
    )


# ---------------------------------------------------------------------------
# frame-variation potentials
# ---------------------------------------------------------------------------


def test_translation_potential_matches_moment_model(
    reduction_ctx, base_reduction_state
):
    e = np.zeros(reduction_ctx.num_frame_coords)
    e[0] = 1.0
    lead = xi_map(reduction_ctx, base_reduction_state.t, e)
    h = variation_potential(reduction_ctx, base_reduction_state, e)
    deviation = field_norm(reduction_ctx, h.values - lead.values)
    assert deviation <= 5e-3 * reduction_ctx.vol_norm(lead)


def test_rotation_potential_matches_moment_model(reduction_ctx, base_reduction_state):
    e = np.zeros(reduction_ctx.num_frame_coords)
    e[6] = 1.0
    lead = xi_map(reduction_ctx, base_reduction_state.t, e)
    h = variation_potential(reduction_ctx, base_reduction_state, e)
    deviation = field_norm(reduction_ctx, h.values - lead.values)
    assert deviation <= 5e-3 * reduction_ctx.vol_norm(lead)


def test_stabilizer_potentials_vanish(reduction_ctx, base_reduction_state):
    for idx in reduction_ctx.stabilizer_indices:
        e = np.zeros(reduction_ctx.num_frame_coords)
        e[idx] = 1.0
        lead = xi_map(reduction_ctx, base_reduction_state.t, e)
        h = variation_potential(reduction_ctx, base_reduction_state, e)
        assert reduction_ctx.vol_norm(lead) <= 1e-12
        assert reduction_ctx.vol_norm(h) <= 1e-8


def test_moment_potentials_span_reduced_kernel(reduction_ctx):
    import scipy.linalg

    columns = []
    for idx in reduction_ctx.quotient_indices:
        e = np.zeros(reduction_ctx.num_frame_coords)
        e[idx] = 1.0
        columns.append(xi_map(reduction_ctx, T, e).values.reshape(-1))
    kernel = np.stack(
        [b.values.reshape(-1) for b in reduction_ctx.reduced_basis], axis=1
    )
    angles = scipy.linalg.subspace_angles(np.stack(columns, axis=1), kernel)
    assert np.max(angles) <= 1e-6


def test_exactness_certificate_rejects_inexact_form(reduction_ctx):
    mesh = reduction_ctx.grid.meshgrid()
    beta = np.zeros(reduction_ctx.grid.sizes + (2,))
    beta[..., 0] = np.cos(mesh[1])  # rotational component, not a gradient
    with pytest.raises(ExactnessError):
        _integrate_exact_one_form(reduction_ctx, beta)


# ---------------------------------------------------------------------------
# the reduced gradient and its factorization
# ---------------------------------------------------------------------------


def test_gradient_factorization_identity(reduction_ctx):
    for seed in (1, 2):
        frame = random_frame_state(reduction_ctx, seed=seed)
        state = projected_solve(reduction_ctx, T, frame)
        report = gradient_K(reduction_ctx, state)
        q = reduction_ctx.quotient_indices
        scale = max(float(np.max(np.abs(report.fd[q]))), 1e-12)
        mismatch = float(np.max(np.abs(report.fd[q] - report.factored[q]))) / scale
        assert mismatch <= 1e-3
        assert np.max(np.abs(report.stabilizer_fd)) <= 1e-8
        assert np.max(np.abs(report.stabilizer_factored)) <= 1e-8


def test_pairing_matrix_report(reduction_ctx, base_reduction_state):
    deviations = {}
    for t in (0.08, 0.04):
        state = projected_solve(reduction_ctx, t, base_reduction_state.frame)
        report = psi_matrices(reduction_ctx, state)
        scale = float(np.max(np.abs(report.psi_leading)))
        deviations[t] = float(np.max(np.abs(report.Psi - report.psi_leading))) / scale
        assert report.condition <= 100.0
        assert np.max(report.stabilizer_norms) <= 1e-8
    assert deviations[0.08] <= 2e-3
    assert deviations[0.04] <= deviations[0.08]  # first-order in t


# ---------------------------------------------------------------------------
# frame optimization and second variation
# ---------------------------------------------------------------------------


def test_optimize_frame_locates_stationary_torus(reduction_ctx, frame_optimum):
    result = frame_optimum
    assert result.gradient_norm <= 1e-8
    assert result.stabilizer_gradient_norm <= 1e-8
    assert result.is_minimum
    assert result.hessian_eigenvalues[0] >= -1e-6
    assert result.state.converged
    assert result.state.kernel_overlap(reduction_ctx) <= 1e-10
    # independent geometric certificate: the located torus is Hamiltonian
    # stationary for the full ambient metric
    assert result.residual_relative <= 1e-5


def test_second_variation_blocks(reduction_ctx, frame_optimum):
    report = second_variation_Q(
        reduction_ctx, frame_optimum.state, frame_block=frame_optimum.hessian
    )
    assert report.transverse_relative_error <= 0.1
    assert np.min(report.frame_eigenvalues) >= -1e-8
    assert report.cross_relative <= 1e-3
    tn = T**reduction_ctx.n
    expected = tn * np.linalg.eigvalsh(frame_optimum.hessian)
    assert np.allclose(report.frame_eigenvalues, expected, rtol=1e-10, atol=1e-16)


# ---------------------------------------------------------------------------
# a solved state: its own residual and its memo of neighbour solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coarse_ctx():
    return build_context(grid_size=24)


def fresh_state(ctx, seed=5):
    # t 0.02: at grid 24 and t 0.05 this frame stalls at a roundoff floor
    return projected_solve(ctx, 0.02, random_frame_state(ctx, seed=seed))


def test_solve_near_is_memoized_and_equals_direct_solve(coarse_ctx):
    state = fresh_state(coarse_ctx)
    for sign in (1.0, -1.0):
        e = np.zeros(coarse_ctx.num_frame_coords)
        e[1] = sign * FRAME_STEP
        near = hslag.reduction._solve_near(coarse_ctx, state, e)
        assert hslag.reduction._solve_near(coarse_ctx, state, e) is near
        direct = projected_solve(coarse_ctx, state.t, state.frame.shifted(e), init=state.f)
        assert near.f.values.tobytes() == direct.f.values.tobytes()
        assert near.K_value == direct.K_value
        assert near.residual_history == direct.residual_history


def test_state_gradient_is_final_residual(coarse_ctx, monkeypatch):
    state = fresh_state(coarse_ctx)
    vol, grad = hslag.reduction.residual_P(coarse_ctx, state.t, state.unitary, state.f)
    assert state.gradient.values.tobytes() == grad.values.tobytes()
    assert vol == state.K_value
    # the value-only volume of the jet contract: second_variation_Q's stencil centre
    assert hslag.reduction.functional_F(coarse_ctx, state.t, state.unitary, state.f) == vol

    calls = []
    volume = hslag.reduction.graph_volume_and_gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return volume(*args, **kwargs)

    monkeypatch.setattr(hslag.reduction, "graph_volume_and_gradient", counting)
    H_eval(coarse_ctx, state)
    assert calls == []


def test_stencils_around_a_state_solve_each_frame_once(coarse_ctx, monkeypatch):
    state = fresh_state(coarse_ctx)
    seen = []
    solve = hslag.reduction.projected_solve

    def counting(ctx, t, frame, init=None):
        seen.append((t, frame.coords.tobytes(), None if init is None else init.values.tobytes()))
        return solve(ctx, t, frame, init=init)

    monkeypatch.setattr(hslag.reduction, "projected_solve", counting)
    gradient_K(coarse_ctx, state)
    second_variation_Q(coarse_ctx, state)
    assert len(seen) == len(set(seen))
    # 16 gradient frames, then the Hessian's 84 less its 12 shared +-e frames
    assert len(seen) == 16 + 72


def test_saddle_test_ignores_stencil_noise():
    """At K ~ 51.3 and the frame step 1e-4 the five-point stencil's roundoff
    is about 6.1e-6, so -3e-6 is noise and -2e-5 a saddle."""
    assert FRAME_STEP == 1e-4
    assert not hslag.reduction._is_saddle(-3e-6, 51.317)
    assert hslag.reduction._is_saddle(-2e-5, 51.317)
    # where the noise is smaller than the 1e-6 saddle tolerance, that decides
    assert not hslag.reduction._is_saddle(-0.9e-6, 1.0)
    assert hslag.reduction._is_saddle(-1.1e-6, 1.0)
