"""Tests of the finite-dimensional reduction pipeline.

Oracles: the flat metric (exact stationary model with known volume), the
moment-map potentials of rigid frame motions, the factorization of the
reduced gradient through the kernel pairing, and the independent geometric
stationarity certificate on located tori.
"""

import dataclasses
import os
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complex_step_second_variation,
    fourier_multiply,
    loop_context,
    loop_perturbed_metric,
    mode_field,
    psi_matrices,
    realize_jacobian_fd,
    reduced_basis,
    ShearedFlatMetric,
    symbol_apply,
    xi_map,
)

import hslag.ambient
import hslag.operators
import hslag.reduction
import hslag.weinstein
from hslag.ambient import ChartMetric, EuclideanMetric, default_perturbed_metric
from hslag.cli import ExperimentConfig, main
from hslag.errors import ExactnessError, NonContractionError
from hslag.fieldio import load_manifest
from hslag.geomcore import ScalarField, _inverse
from hslag.models import TorusModel
from hslag.reduction import (
    FRAME_STEP,
    FrameState,
    H_eval,
    OptimizeSettings,
    SOLVE_TOL,
    _integrate_exact_one_form,
    build_context,
    frame_gradient,
    geometric_residual,
    gradient_K,
    hessian_K,
    optimize_frame,
    projected_solve,
    random_frame_state,
    second_variation_Q,
    variation_potential,
)

RADII = (1.0, 1.3)
T = 0.05  # the scale of the shared reduction problem
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.fixture(scope="module")
def flat_ctx():
    return build_context(TorusModel(RADII), EuclideanMetric(2))


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
    # the kernel stays as mode indices: no mode is evaluated on the grid
    for module in (hslag.operators, hslag.reduction):
        for name in ("_unit_modes", "_real_modes"):
            if name in module.__dict__:
                monkeypatch.setattr(module, name, counting(name, module.__dict__[name]))
    ctx = build_context(TorusModel(RADII, grid_size=size))
    assert calls == []
    assert len(ctx.kernel_modes) == 7
    assert np.count_nonzero(ctx.kernel_modes) == 6


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "radii, size",
    [((1.0, 1.3), 24), ((1.0, 1.3), 32), ((1.0, 1.0), 24), ((1.0, 1.0), 32), ((1.0, 1.3, 1.6), 16)],
)
def test_setup_equals_loop_references_bit_for_bit(radii, size):
    """The whole-array set-up, the default metric, the context and the
    eigenfields, equals its one-mode-at-a-time references byte for byte, so
    every located torus and stored result is unchanged by it.  The kernel
    fields that readers build from ctx.kernel_modes, unit and
    volume-normalized, are each `mode_field` at the reference's index, and
    the support of inverse_symbol is the reference's transverse mask."""
    n = len(radii)
    for seed, waves in ((0, 3), (1, 4)):
        metric = default_perturbed_metric(n, seed=seed, num_waves=waves)
        reference = loop_perturbed_metric(n, seed=seed, num_waves=waves)
        for name in ("wave_vectors", "cos_coeffs", "sin_coeffs", "_phase_weights"):
            assert _same_bits(getattr(metric, name), getattr(reference, name)), name
        assert metric._terms == reference._terms
    ctx = build_context(TorusModel(radii, grid_size=size), metric)
    expected = loop_context(radii, size, reference)
    assert _same_bits(ctx.flat_operator.symbol, expected["symbol"])
    assert _same_bits(ctx.flat_operator.admissible, expected["admissible"])
    assert _same_bits(ctx.kernel_modes, expected["kernel_modes"])
    indices = expected["kernel_modes"]
    kernel = hslag.operators._unit_modes(ctx.grid, ctx.kernel_modes)
    assert all(_same_bits(f, mode_field(ctx.grid, i)) for f, i in zip(kernel, indices))
    zero_mean = [i for i in indices if i != 0]
    reduced = reduced_basis(ctx)
    assert len(reduced) == len(zero_mean) == len(kernel) - 1
    root = np.sqrt(expected["density"])
    for f, i in zip(reduced, zero_mean):
        assert _same_bits(f.values, mode_field(ctx.grid, i) / root), i
    assert _same_bits(ctx.inverse_symbol != 0.0, expected["transverse_mask"])
    for name in ("inverse_symbol", "quotient", "symmetries"):
        assert _same_bits(getattr(ctx, name), expected[name]), name
    spectrum = hslag.operators.eigensolve(ctx.flat_operator, 20)
    _, modes = ctx.flat_operator.sorted_modes()
    assert len(spectrum.eigenfields) == 20
    for f, index in zip(spectrum.eigenfields, modes):
        assert _same_bits(f.values, mode_field(ctx.grid, index)), index


# signed wave numbers with a negative or mixed-sign component, per n
_SIGNED_WAVES = {
    2: [(-1, 0), (0, -1), (-1, 1), (1, -1), (-2, -3), (3, -2), (-11, 7)],
    3: [(-1, 0, 0), (0, 0, -1), (1, -1, 0), (-1, 1, -1), (2, -3, 1), (0, -2, 0), (-15, 4, -7)],
}


@pytest.mark.parametrize("radii, size", [((1.0, 1.3), 24), ((1.0, 1.3, 1.6), 32)])
def test_unit_modes_equal_the_one_mode_oracle_bit_for_bit(radii, size):
    """`_unit_modes` at the kernel's indices, at the transverse probes' and
    at negative and mixed wave numbers equals `mode_field`, one mode on the
    full node mesh, byte for byte."""
    ctx = build_context(TorusModel(radii, grid_size=size))
    waves = np.array(_SIGNED_WAVES[len(radii)])
    signed = np.ravel_multi_index(tuple(waves.T), ctx.grid.sizes, mode="wrap")
    for indices in (ctx.kernel_modes, hslag.reduction._field_modes(ctx), signed):
        fields = hslag.operators._unit_modes(ctx.grid, indices)
        assert len(fields) == len(indices)
        for f, index in zip(fields, indices):
            assert _same_bits(f, mode_field(ctx.grid, index)), index


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
    assert state.residual_norm <= SOLVE_TOL


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
    assert state.residual_norm <= SOLVE_TOL
    assert state.iterations <= 50
    assert state.kernel_overlap(reduction_ctx) <= 1e-10
    assert abs(float(np.mean(state.f.values))) <= 1e-12
    coeffs = H_eval(reduction_ctx, state)
    assert coeffs.shape == (np.count_nonzero(reduction_ctx.kernel_modes),)
    assert np.max(np.abs(coeffs)) <= 1e-2


def test_solution_scales_linearly(reduction_ctx, base_reduction_state):
    frame = base_reduction_state.frame
    norms = {}
    for t in (0.08, 0.04, 0.02):
        st_ = projected_solve(reduction_ctx, t, frame)
        assert st_.residual_norm <= SOLVE_TOL
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


def test_non_contraction_raises(reduction_ctx, base_reduction_state, monkeypatch):
    monkeypatch.setattr(hslag.reduction, "_MAX_SOLVE_ITERATIONS", 3)
    with pytest.raises(NonContractionError):
        projected_solve(reduction_ctx, 0.05, base_reduction_state.frame)


def test_roundoff_floor_raises_early(monkeypatch):
    """Below the true roundoff floor the solve stops at the floor instead of
    running its 200 iterations: at grid 24 and t = 0.05 this frame converges
    to about 7e-13, and its residual floors near 3e-14, so a 1e-16 tolerance
    is out of reach, and so is an update tolerance of 1e-20, far under the
    update's floor (about 2e-17)."""
    ctx = build_context(TorusModel(RADII, grid_size=24))
    calls = []
    volume = hslag.reduction.graph_volume_and_gradient

    def counting(*args, **kwargs):
        calls.append(1)
        return volume(*args, **kwargs)

    monkeypatch.setattr(hslag.reduction, "graph_volume_and_gradient", counting)
    monkeypatch.setattr(hslag.reduction, "SOLVE_TOL", 1e-16)
    monkeypatch.setattr(hslag.reduction, "UPDATE_TOL", 1e-20)
    with pytest.raises(NonContractionError, match=r"floor of [0-9.]+e-1[3-5] above tol=1\.0e-16"):
        projected_solve(ctx, T, random_frame_state(ctx, seed=5))
    assert len(calls) <= 20


@pytest.mark.parametrize("factor", [-1.0, -0.5, 2.5])
def test_growing_residual_raises_as_divergence(factor):
    """A pseudo-inverse of the wrong sign, or with too large a gain, makes the
    residual grow: at grid 16 from 8.6e-2 to 2.9e-1 (factors -0.5 and 2.5)
    or 6.9e-1 (-1) in three iterations, short of the _DIVERGENCE_FACTOR.  The
    stall rule stops the solve there, and its error names a divergence, not a
    residual floor."""
    ctx = build_context(TorusModel(RADII, grid_size=16))
    ctx = dataclasses.replace(ctx, inverse_symbol=factor * ctx.inverse_symbol)
    with pytest.raises(NonContractionError, match=r"diverged: residual \S+ after 4 steps"):
        projected_solve(ctx, T, random_frame_state(ctx, seed=5))


def test_grid_64_solve_stops_at_its_update():
    """In `reduce --seed 1`'s metric, the torus located at grid 24 and solved
    cold at grid 64: there the residual's roundoff floor (about 1.03e-12) is
    above SOLVE_TOL, so the solve stops on the update test, where the
    residual test alone stagnates.  K is grid 24's to 1e-13 relative.  About
    0.6 s, most of it the grid-24 search."""
    metric = default_perturbed_metric(2, seed=1)
    coarse = build_context(TorusModel(RADII, grid_size=24), metric)
    located = optimize_frame(coarse, T, random_frame_state(coarse, seed=1))
    fine = build_context(TorusModel(RADII, grid_size=64), metric)
    state = projected_solve(fine, T, located.state.frame)
    assert state.converged
    assert state.iterations < 20
    assert state.residual_norm <= 1e-10
    K = located.state.K_value
    assert abs(state.K_value - K) <= 1e-13 * abs(K)


@pytest.mark.parametrize(
    "radii, size, seed",
    [((1.0, 1.3), 16, 5), ((1.0, 1.3), 24, 3), ((1.0, 1.3, 1.6), 16, 1)],
    ids=["grid16", "grid24", "n3_grid16"],
)
def test_band_projector_has_no_off_band_floor(radii, size, seed):
    """Solves whose residual used to floor above the tolerance on its Nyquist
    modes, where the pseudo-inverse is zero: with f and the residual both on
    the band, they converge."""
    ctx = build_context(TorusModel(radii, grid_size=size))
    state = projected_solve(ctx, T, random_frame_state(ctx, seed=seed))
    assert state.converged
    assert state.residual_norm < 1e-12


def test_solved_state_lives_on_the_band(reduction_ctx, base_reduction_state):
    """f and the tested residual carry no mode outside admissible & ~kernel."""
    operator = reduction_ctx.flat_operator
    kernel = operator.admissible & (np.abs(operator.symbol) < 1e-8)
    assert np.count_nonzero(kernel) == 7
    band = operator.admissible & ~kernel
    transverse = reduction_ctx.inverse_symbol != 0.0
    gradient = base_reduction_state.gradient.values
    residual = fourier_multiply(gradient, reduction_ctx.grid, transverse)
    for values in (base_reduction_state.f.values, residual):
        spectrum = np.abs(np.fft.fftn(values))
        assert np.max(spectrum[~band]) <= 1e-14 * np.max(spectrum)


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
    lead = xi_map(reduction_ctx, base_reduction_state.t, e, base_reduction_state.unitary.matrix)
    [h] = variation_potential(reduction_ctx, base_reduction_state, [e])
    deviation = field_norm(reduction_ctx, h.values - lead.values)
    assert deviation <= 5e-3 * reduction_ctx.vol_norm(lead)


def test_rotation_potential_matches_moment_model(reduction_ctx, base_reduction_state):
    e = np.zeros(reduction_ctx.num_frame_coords)
    e[6] = 1.0
    lead = xi_map(reduction_ctx, base_reduction_state.t, e, base_reduction_state.unitary.matrix)
    [h] = variation_potential(reduction_ctx, base_reduction_state, [e])
    deviation = field_norm(reduction_ctx, h.values - lead.values)
    assert deviation <= 5e-3 * reduction_ctx.vol_norm(lead)


def test_stabilizer_potentials_vanish(reduction_ctx, base_reduction_state):
    for idx in reduction_ctx.stabilizer_indices:
        e = np.zeros(reduction_ctx.num_frame_coords)
        e[idx] = 1.0
        lead = xi_map(reduction_ctx, base_reduction_state.t, e, base_reduction_state.unitary.matrix)
        [h] = variation_potential(reduction_ctx, base_reduction_state, [e])
        assert reduction_ctx.vol_norm(lead) <= 1e-12
        assert reduction_ctx.vol_norm(h) <= 1e-8


def test_moment_potentials_span_reduced_kernel(reduction_ctx, base_reduction_state):
    """Every translation and the off-diagonal rotations: the moment maps of
    the frame motions off the diagonal torus span the zero-mean kernel."""
    matrix = base_reduction_state.unitary.matrix
    columns = []
    axes = np.eye(reduction_ctx.num_frame_coords)
    for e in np.delete(axes, reduction_ctx.stabilizer_indices, axis=0):
        columns.append(xi_map(reduction_ctx, T, e, matrix).values.reshape(-1))
    kernel = np.stack([b.values.reshape(-1) for b in reduced_basis(reduction_ctx)], axis=1)
    angles = scipy.linalg.subspace_angles(np.stack(columns, axis=1), kernel)
    assert np.max(angles) <= 1e-6


def test_exactness_certificate_rejects_inexact_form(reduction_ctx):
    mesh = reduction_ctx.grid.meshgrid()
    beta = np.zeros(reduction_ctx.grid.sizes + (2,))
    beta[..., 0] = np.cos(mesh[1])  # rotational component, not a gradient
    with pytest.raises(ExactnessError):
        _integrate_exact_one_form(reduction_ctx, beta)
    # in a stack each form is certified on its own, against its own scale:
    # a small inexact form fails beside a large exact one, whose scale would
    # hide its defect
    exact = np.stack([np.cos(mesh[0]), -1.3 * np.sin(mesh[1])], axis=-1)
    potentials = _integrate_exact_one_form(reduction_ctx, np.stack([exact, 2.0 * exact]))
    assert np.max(np.abs(potentials[1] - 2.0 * potentials[0])) <= 1e-14
    for stack in ([1e4 * exact, 1e-5 * beta], [1e-5 * beta, 1e4 * exact]):
        with pytest.raises(ExactnessError):
            _integrate_exact_one_form(reduction_ctx, np.stack(stack))


# ---------------------------------------------------------------------------
# the reduced gradient and its factorization
# ---------------------------------------------------------------------------


def test_gradient_factorization_identity(reduction_ctx):
    for seed in (1, 2):
        frame = random_frame_state(reduction_ctx, seed=seed)
        state = projected_solve(reduction_ctx, T, frame)
        report = gradient_K(reduction_ctx, state)
        q = slice(reduction_ctx.quotient.shape[1])
        scale = max(float(np.max(np.abs(report.fd[q]))), 1e-12)
        mismatch = float(np.max(np.abs(report.fd[q] - report.factored[q]))) / scale
        assert mismatch <= 1e-3
        assert np.max(np.abs(report.fd[q.stop:])) <= 1e-8
        assert np.max(np.abs(report.factored[q.stop:])) <= 1e-8
        # with the exact envelope gradient, all three agree along every
        # direction, symmetry components included, at a frame that is not
        # critical
        assert scale >= 1e-5
        for a, b in ((report.envelope, report.fd), (report.envelope, report.factored),
                     (report.fd, report.factored)):
            assert np.max(np.abs(a - b)) <= 1e-9


def test_realize_jacobian_complex_step_matches_central_differences(reduction_ctx):
    rng = np.random.default_rng(4)
    frame = random_frame_state(reduction_ctx, seed=3)
    frame = frame.shifted(rng.uniform(-0.3, 0.3, size=frame.coords.size))
    exact = hslag.reduction._realize_jacobian(
        reduction_ctx.metric, frame, np.eye(frame.coords.size)
    )
    for cs, fd in zip(exact, realize_jacobian_fd(reduction_ctx.metric, frame)):
        assert cs.dtype == float and cs.shape == fd.shape
        assert np.max(np.abs(cs - fd)) <= 1e-8


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


def test_symmetries_fix_K_and_leave_no_hessian_zero_mode(reduction_ctx, frame_optimum):
    """In exact arithmetic K is invariant along every column of
    ctx.symmetries: the one translation along the null space of the three
    wave vectors in R^4, and the diagonal torus, turned here by one grid
    spacing so nodes map to nodes.  The solved K is not invariant to
    roundoff: random shifts of up to 1e-4 along them moved it by -3 to +29
    ulps (4e-15 relative) at the located torus on grids 24 and 32, far
    inside the 1e-12 relative bound here.  With the symmetries out of the
    quotient, the located Hessian has no zero mode."""
    state = frame_optimum.state
    anchor = state.frame.anchored(reduction_ctx.metric)
    step = 2.0 * np.pi / reduction_ctx.grid.sizes[0]
    assert reduction_ctx.symmetries.shape == (8, 3)
    for direction in reduction_ctx.symmetries.T:
        moved = projected_solve(reduction_ctx, T, anchor.shifted(step * direction), init=state.f)
        assert abs(moved.K_value - state.K_value) <= 1e-12 * state.K_value
    assert frame_optimum.hessian.shape == (5, 5)
    assert np.linalg.eigvalsh(frame_optimum.hessian)[0] >= 1e-5


def test_frame_bases_split_the_coordinates_at_n3():
    """Three wave vectors in R^6 leave three translations that fix the
    metric: the quotient has 3 + 6 columns, the symmetries 3 + 3, and
    together they are an orthonormal basis of the 15 frame coordinates.

    At n = 2 (1 and 3 waves) and n = 3 (3 and 6 waves) the rows of the
    quotient at the diagonal-torus coordinates are exact zeros, so no
    quotient stencil turns the model and each neighbour solve starts from
    f or from its reflection."""
    ctx = build_context(TorusModel((1.0, 1.3, 1.6), grid_size=16))
    assert ctx.quotient.shape == (15, 9)
    assert ctx.symmetries.shape == (15, 6)
    basis = np.hstack([ctx.quotient, ctx.symmetries])
    assert np.max(np.abs(basis.T @ basis - np.eye(15))) <= 1e-14
    translations = ctx.symmetries[: 2 * ctx.n]
    assert np.max(np.abs(ctx.metric.wave_vectors @ translations)) <= 1e-14
    radii2, radii3 = (1.0, 1.3), (1.0, 1.3, 1.6)
    for radii, num_waves in ((radii2, 1), (radii2, 3), (radii3, 3), (radii3, 6)):
        metric = default_perturbed_metric(len(radii), num_waves=num_waves)
        shaped = build_context(TorusModel(radii, grid_size=16), metric)
        assert not np.any(shaped.quotient[shaped.stabilizer_indices])


def test_grid_24_locates_the_grid_32_torus(coarse_ctx, reduction_ctx, frame_optimum):
    """Grid convergence: from the same start, grid 24 finds the torus that
    grid 32 finds, base point included: the search never moves along the
    translations that fix the metric, so nothing is split off."""
    coarse = optimize_frame(coarse_ctx, T, random_frame_state(coarse_ctx, seed=1))
    K_coarse, K_fine = coarse.state.K_value, frame_optimum.state.K_value
    assert abs(K_coarse - K_fine) <= 1e-13 * abs(K_fine)
    assert coarse.residual_relative <= 1e-5
    assert frame_optimum.residual_relative <= 1e-5
    gap = coarse.state.unitary.point - frame_optimum.state.unitary.point
    assert np.linalg.norm(gap) <= 1e-9


def test_sheared_flat_metric_keeps_the_flat_volume_at_every_frame():
    """A known answer for the whole reduction: the flat metric pulled back by
    the symplectic shear of V = 0.05 cos x1 + 0.02 cos(x1 + 2 x2) +
    0.03 cos x2 (`oracles.ShearedFlatMetric`).  Every solved torus is the
    flat one moved by an isometry, so K = (2 pi)^2 1.3 at every frame and t,
    while |f| reads up to 7e-3.  The bounds:

    - The metric's derivative against a complex step (no subtraction at step
      1e-20) and the pullback against the derivative: both sides are a few
      rounded products of entries below 1, so they agree to 1e-15.
    - K against the flat volume, taken in mpmath and rounded (half an ulp):
      K is a pairwise node sum, off by at most sqrt(log2 N) + 1/2 ulps (see
      `test_envelope_gradient_matches_the_finite_differences`).  The field's
      truncation enters K squared, since the volume is stationary in f at a
      solution; grid 24 reads no further off than grid 32 (0 to 2 ulps).
    - `frame_gradient`: K is constant, so the envelope theorem leaves
      -<R, df/dc>, at most |R| |df/dc| with R the state's residual and
      df/dc read off the located state's stencil (at most 0.01); and the
      roundoff of the affine sensitivity, 2n + 4n^2 = 20 node sums, each
      off by at most (sqrt(log2 N) + 1/2) ulp(K) as K is, met by Jacobian
      entries of order one (the 1/t of the shift meets the t of its
      sensitivity).  About 5e-13 in all; the gradients read at most 1e-14.
    - `hessian_K`: central differences of those gradients, with no
      truncation since K is constant, so an entry is at most the neighbours'
      gradient bound over FRAME_STEP (5e-9), far inside the saddle test's
      1e-6; the entries read at most 4e-11.
    - `_fd_gradient` at the located state reads the stencil `hessian_K`
      solved, so its memo keeps 8 entries.  Each K is within roundoff(ctx)
      plus half an ulp of the flat volume, so a component is at most
      2 (sqrt(log2 N) + 1/2) + 1 quanta of ulp(K) / (2 FRAME_STEP), 8.06 at
      grid 24; the components read 0 to 2 quanta.
    - `optimize_frame` stops at its start, |dK| <= 1e-9, after one
      evaluation, and calls the point no saddle.
    - The geometric residual at a frame falls from grid 24 (5e-8 to 6e-7)
      to grid 32 (2e-10 to 3e-9).

    At n = 3 the shear of V = 0.05 cos x1 + 0.03 cos x2 + 0.02 cos x3 +
    0.02 cos(x1 + x2), radii (1, 1.3, 1.6), gives K = (2 pi)^3 1.3 1.6 at
    random frames, t = 0.05 and grid 16, to the same sqrt(log2 N) + 1 ulps
    (reads 0 to 2 over seeds 1 to 3 and t 0.05 and 0.1), while the
    vol-norm of f reads 7e-3 to 1.5e-2 at t = 0.05.  Every wave is
    resolved at grid 16: a wave (1, 2, 0) there reads up to 790 ulps off,
    the field's truncation."""
    mpmath = pytest.importorskip("mpmath")
    metric = ShearedFlatMetric([[1, 0], [1, 2], [0, 1]], [0.05, 0.02, 0.03])
    rng = np.random.default_rng(4)
    points = rng.uniform(0.0, 2.0 * np.pi, size=(6, 4))
    G, dG = metric.derivative(points)
    step = [metric.value(points + 1e-20j * e).imag / 1e-20 for e in np.eye(4)]
    assert np.max(np.abs(np.moveaxis(step, 0, 1) - dG)) <= 1e-15
    M = rng.normal(size=(6, 4, 4))
    value, pullback = metric.linearize(points)
    assert np.array_equal(value, G)
    assert np.max(np.abs(pullback(M) - np.einsum("pmij,pij->pm", dG, M))) <= 1e-15

    flat = float((2 * mpmath.pi) ** 2 * mpmath.mpf(RADII[1]))
    coarse, fine = (build_context(TorusModel(RADII, grid_size=g), metric) for g in (24, 32))

    def roundoff(ctx):
        return (np.sqrt(np.log2(ctx.grid.num_nodes)) + 0.5) * np.spacing(flat)

    located = optimize_frame(coarse, 0.05, random_frame_state(coarse, seed=1))
    assert located.solver_evaluations == 1 and located.is_minimum
    state = located.state
    quotient = coarse.quotient.T
    near = hslag.reduction._solve_stencil(coarse, state, quotient)
    rate = max(
        coarse.vol_norm(ScalarField(coarse.grid, (a.f.values - b.f.values) / (2.0 * FRAME_STEP)))
        for a, b in zip(near[0::2], near[1::2])
    )

    def gradient_bound(solved):
        return solved.residual_norm * rate + 20.0 * roundoff(coarse)

    for solved in [state] + near:
        assert np.max(np.abs(frame_gradient(coarse, solved, quotient))) <= gradient_bound(solved)
    assert np.max(np.abs(located.hessian)) <= max(map(gradient_bound, near)) / FRAME_STEP
    assert len(state._neighbours) == 8
    fd = hslag.reduction._fd_gradient(coarse, state, quotient)
    assert len(state._neighbours) == 8
    assert np.max(np.abs(fd)) <= (2.0 * roundoff(coarse) + np.spacing(flat)) / (2.0 * FRAME_STEP)

    for seed, t in ((1, 0.05), (2, 0.1), (3, 0.1)):
        residuals = []
        for ctx in (coarse, fine):
            solved = projected_solve(ctx, t, random_frame_state(ctx, seed=seed))
            assert abs(solved.K_value - flat) <= roundoff(ctx) + 0.5 * np.spacing(flat)
            residuals.append(geometric_residual(ctx, solved)[0])
        assert residuals[1] < residuals[0] <= 1e-5

    waves = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]
    metric = ShearedFlatMetric(waves, [0.05, 0.03, 0.02, 0.02])
    radii = (1.0, 1.3, 1.6)
    with mpmath.workdps(40):  # roundoff(ctx) reads this flat from here on
        flat = float((2 * mpmath.pi) ** 3 * mpmath.mpf(radii[1]) * mpmath.mpf(radii[2]))
    ctx = build_context(TorusModel(radii, grid_size=16), metric)
    for seed in (1, 2):
        solved = projected_solve(ctx, 0.05, random_frame_state(ctx, seed=seed))
        assert ctx.vol_norm(solved.f) > 1e-3
        assert abs(solved.K_value - flat) <= roundoff(ctx) + 0.5 * np.spacing(flat)


def test_stored_n3_torus_solves_cold_to_its_K():
    """The manifests of `hslag reduce --n 3 --radii 1 1.3 1.6 --grid 24
    --seed 1` and of `hslag reduce --seed 1`, `2` and `3` at grid 32 (the
    stored runs `reduce_seed1` to `reduce_seed3`): one cold solve at each final
    frame converges to the stored K within 1e-14 relative, and the torus is
    stationary in the full metric, geometric residual <= 1e-5 (the stored
    values read 1.14e-8 at n = 3, and 2.99e-10, 2.00e-10 and 2.31e-10 at
    seeds 1, 2 and 3)."""
    names = ["reduce_n3_seed1_manifest.json"]
    names += [os.path.join(f"reduce_seed{seed}", "manifest.json") for seed in (1, 2, 3)]
    for name in names:
        manifest = load_manifest(os.path.join(DATA, name))
        config = ExperimentConfig.from_dict(manifest["config"])
        model = TorusModel(config.radii, grid_size=config.grid_size)
        ctx = build_context(model, config.ambient_metric())
        frame = manifest["payload"]["final_frame"]
        keys = ("point", "matrix", "coords")
        start = FrameState(*(np.array(frame[key], dtype=float) for key in keys))
        state = projected_solve(ctx, config.t, start)
        assert state.converged, name
        K = manifest["payload"]["K"]
        assert abs(state.K_value - K) <= 1e-14 * abs(K), name
        assert geometric_residual(ctx, state)[0] <= 1e-5, name


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


def test_transverse_block_matches_complex_step(coarse_ctx):
    """The two-volume transverse block against the complex-step Hessian, to
    2e-8 relative: at the located n = 2 tori of seeds 1 and 3 at grid 24 (two
    distinct tori), through `second_variation_Q`, and at solved n = 3 states
    at grid 16, whose cross block would cost 18 solves, through the block
    alone.  The block reads at most 7e-10 and 2.5e-9 there; a 5-point value
    stencil at step 1e-3 reads up to 1.9e-7 at these n = 3 states."""
    directions = hslag.reduction._field_directions(coarse_ctx)
    for seed in (1, 3):
        located = optimize_frame(coarse_ctx, T, random_frame_state(coarse_ctx, seed=seed))
        report = second_variation_Q(coarse_ctx, located.state, frame_block=located.hessian)
        exact = T**2 * complex_step_second_variation(coarse_ctx, located.state, directions)
        assert np.max(np.abs(report.transverse_fd - exact) / np.abs(exact)) <= 2e-8
    ctx = build_context(TorusModel((1.0, 1.3, 1.6), grid_size=16))
    directions = hslag.reduction._field_directions(ctx)
    for seed in (1, 6):
        state = projected_solve(ctx, T, random_frame_state(ctx, seed=seed))
        block = hslag.reduction._transverse_second_variation(ctx, state, directions)
        exact = complex_step_second_variation(ctx, state, directions)
        assert np.max(np.abs(block - exact) / np.abs(exact)) <= 2e-8


@pytest.mark.parametrize(
    "radii, size", [(RADII, 24), (RADII, 32), ((1.0, 1.3, 1.6), 16)], ids=["n2-24", "n2-32", "n3-16"]
)
def test_field_directions_are_the_projected_probes(radii, size):
    """The transverse probes, unit modes at three mode indices, equal the
    construction they replaced to 1e-14: cos 2 theta_1, cos(theta_1 +
    theta_2) and sin 2 theta_2 on the mesh, projected onto the band off the
    flat kernel and volume-normalized.  The symbol at those indices is that
    construction's flat form <h, L h> through the symbol as a multiplier to 1e-15
    relative.  The sin probe is the mesh's own sin 2 theta_2, normalized, to
    4e-16 (3.1e-16 at n = 2, grid 24; phases from the wrapped index
    k mod N read 3.4e-15 there)."""
    ctx = build_context(TorusModel(radii, grid_size=size))
    mesh = ctx.grid.meshgrid()
    reference = []
    for values in (np.cos(2.0 * mesh[0]), np.cos(mesh[0] + mesh[1]), np.sin(2.0 * mesh[1])):
        band = fourier_multiply(values, ctx.grid, ctx.inverse_symbol != 0.0)
        norm = ctx.vol_norm(ScalarField(ctx.grid, band, check=False))
        reference.append(ScalarField(ctx.grid, band / norm, check=False))
    directions = hslag.reduction._field_directions(ctx)
    assert len(directions) == 3
    for h, expected in zip(directions, reference):
        assert np.max(np.abs(h.values - expected.values)) <= 1e-14
    sin_2 = np.sin(2.0 * mesh[1])
    unit_sin_2 = sin_2 / ctx.vol_norm(ScalarField(ctx.grid, sin_2, check=False))
    assert np.max(np.abs(directions[2].values - unit_sin_2)) <= 4e-16
    model = np.array([ctx.vol_inner(h, symbol_apply(ctx.flat_operator, h)) for h in reference])
    symbol = ctx.flat_operator.symbol.flat[hslag.reduction._field_modes(ctx)]
    assert np.max(np.abs(symbol - model) / model) <= 1e-15


# ---------------------------------------------------------------------------
# a solved state: its own residual and its memo of neighbour solves
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def coarse_ctx():
    return build_context(TorusModel(RADII, grid_size=24))


def fresh_state(ctx, seed=5):
    # t 0.02 keeps these solves short
    return projected_solve(ctx, 0.02, random_frame_state(ctx, seed=seed))


def _turned_start(ctx, located, turn):
    """The located torus's frame turned by turn along each diagonal-torus
    axis: the same torus, reparametrized, so K and its gradient stay."""
    delta = np.zeros(ctx.num_frame_coords)
    delta[ctx.stabilizer_indices] = turn
    return FrameState(located.point, located.matrix, np.zeros(ctx.num_frame_coords)).shifted(delta)


def test_solve_stencil_is_memoized_and_equals_direct_solve(coarse_ctx):
    # the first neighbour starts from f, its mirror image from the reflection
    # 2 f - f_{+e} through it; the direct solves take the frames the stencil
    # realized in one stack
    state = fresh_state(coarse_ctx)
    init = state.f
    row = np.zeros((1, coarse_ctx.num_frame_coords))
    row[0, 1] = 1.0
    stencil = hslag.reduction._solve_stencil(coarse_ctx, state, row)
    again = hslag.reduction._solve_stencil(coarse_ctx, state, row)
    for sign, near, memo in zip((1.0, -1.0), stencil, again):
        e = sign * FRAME_STEP * row[0]
        assert memo is near
        frame = state.frame.shifted(e)
        direct = projected_solve(coarse_ctx, state.t, frame, init=init, unitary=near.unitary)
        assert near.f.values.tobytes() == direct.f.values.tobytes()
        assert near.K_value == direct.K_value
        assert near.residual_history == direct.residual_history
        init = ScalarField(coarse_ctx.grid, 2.0 * state.f.values - near.f.values, check=False)
    # the reflected start is second-order close, the start from f first-order
    from_f = projected_solve(coarse_ctx, state.t, state.frame.shifted(e), init=state.f)
    assert near.residual_history[0] < 1e-3 * from_f.residual_history[0]


def test_gradient_K_after_hessian_solves_each_symmetry_neighbour_once(coarse_ctx, monkeypatch):
    """After `hessian_K` the gradient stencil needs only the 2 x 3 symmetry
    neighbours (one translation and the two diagonal-torus axes at n = 2),
    and solves each once.  The translation fixes the metric, so its
    neighbours, started from f and from the reflection, are solved by their
    first volume; the diagonal-torus neighbours start from f too and take a
    few iterations."""
    state = fresh_state(coarse_ctx)
    hslag.reduction.hessian_K(coarse_ctx, state)
    solved = []
    solve = hslag.reduction.projected_solve

    def counting(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(hslag.reduction, "projected_solve", counting)
    report = gradient_K(coarse_ctx, state)
    assert len(solved) == 2 * coarse_ctx.symmetries.shape[1] == 6
    assert len({near.frame.coords.tobytes() for near in solved}) == 6
    turns = coarse_ctx.symmetries[coarse_ctx.stabilizer_indices]
    translations = coarse_ctx.symmetries[:, ~np.any(turns, axis=0)].T
    assert len(translations) == 1
    near = hslag.reduction._solve_stencil(coarse_ctx, state, translations)
    assert {id(s) for s in near} <= {id(s) for s in solved}
    assert [s.iterations for s in near] == [1, 1]
    m = coarse_ctx.quotient.shape[1]
    assert np.max(np.abs(report.fd[m:])) <= 1e-8
    assert np.max(np.abs(report.factored[m:])) <= 1e-8


def test_envelope_gradient_matches_the_finite_differences(coarse_ctx, frame_optimum):
    """Both reported gradients, along the quotient and along the symmetries,
    are the envelope `frame_gradient`; the finite differences `_fd_gradient`
    stay their oracle.  An fd component is (K+ - K-) / (2 h), h = FRAME_STEP,
    and moves in quanta q = ulp(K) / (2 h): 3.6e-11 at n = 2, 5.7e-10 at
    n = 3.  Its error model is

        fd - envelope = (e+ - e-) / (2 h) + h^2 K''' / 6 + O(h^4) + E,

    with e+- the roundoff of the two solved K values and E the envelope
    error, O(SOLVE_TOL) times the frame derivative of f (at most 0.11 at the
    n = 3 state), so below a hundredth of a quantum.

    Along the symmetries K is constant in exact arithmetic, so there is no
    odd truncation term.  The solved K does carry an even term there (-3 to
    +29 ulps over shifts of up to 1e-4 at the located n = 2 torus), which
    the central difference cancels, and the two K values each carry about an
    ulp: at most 3 quanta.  Both gradients vanish to 1e-8 there.

    Along the quotient the truncation is read off the envelope gradients at
    the fd's own neighbours, h^2 K''' / 6 = (g(+h) + g(-h) - 2 g(0)) / 6
    componentwise, which solves nothing more.  K = w sum_i q_i is the
    pairwise node sum of the volume density times the node weight.  With
    random rounding the sum's error grows as sqrt(log2 N) u K (Higham & Mary,
    SIAM J. Sci. Comput. 2019), and u K <= ulp(K); the product adds half an
    ulp, and each density's own rounding of a few u averages down by
    sqrt(N) >= 24.  So each K is off by at most sqrt(log2 N) + 1/2 ulps,
    and the roundoff term by at most 2 sqrt(log2 N) + 1 quanta: 7.1 at
    grid 24 (N = 576) and 7.9 at n = 3 on grid 16 (N = 4096).  Measured
    there: the node sum's rounding at most 1.1 ulps, the truncation at most
    0.2 and 1.1 quanta, and |fd - envelope| at most 1.7 and 2.1 quanta.

    At the located n = 2 torus on grid 24 the fd reads whole quanta and the
    envelope about 1e-14 along the symmetries.  At n = 3 with 6 waves the
    translations have no null space, so the symmetries are the 3
    diagonal-torus axes; at a random frame on grid 16 |dK| is 0.09 along
    the quotient, and along the symmetries the two gradients read 1e-12 to
    1e-11 and at most a quantum apart (on grid 12 the grid's aliasing
    breaks the invariance and both read 1e-8 to 3e-8)."""
    state = optimize_frame(
        coarse_ctx, T, _turned_start(coarse_ctx, frame_optimum.state.unitary, 0.4),
        OptimizeSettings(max_saddle_restarts=0),
    ).state
    ctx3 = build_context(
        TorusModel((1.0, 1.3, 1.6), grid_size=16), default_perturbed_metric(3, num_waves=6)
    )
    assert ctx3.quotient.shape == (15, 12) and ctx3.symmetries.shape == (15, 3)
    state3 = projected_solve(ctx3, T, random_frame_state(ctx3, seed=1))
    for ctx, solved in ((coarse_ctx, state), (ctx3, state3)):
        quantum = np.spacing(solved.K_value) / (2.0 * FRAME_STEP)
        fd = hslag.reduction._fd_gradient(ctx, solved, ctx.symmetries.T)
        envelope = frame_gradient(ctx, solved, ctx.symmetries.T)
        assert np.linalg.norm(fd) <= 1e-8 and np.linalg.norm(envelope) <= 1e-8
        assert np.max(np.abs(fd - envelope)) <= 3.0 * quantum

        quotient = ctx.quotient.T
        fd = hslag.reduction._fd_gradient(ctx, solved, quotient)
        envelope = frame_gradient(ctx, solved, quotient)
        near = hslag.reduction._solve_stencil(ctx, solved, quotient)
        rows = np.repeat(quotient, 2, axis=0)  # the stencil's order: +row 0, -row 0, ...
        sides = np.array([frame_gradient(ctx, s, row[None])[0] for s, row in zip(near, rows)])
        truncation = np.abs(sides[0::2] + sides[1::2] - 2.0 * envelope) / 6.0
        roundoff = (2.0 * np.sqrt(np.log2(ctx.grid.num_nodes)) + 1.0) * quantum
        assert np.all(np.abs(fd - envelope) <= roundoff + truncation)


def test_realize_jacobian_stacks_equal_one_row_calls(reduction_ctx):
    """One stacked complex-step realization equals the one-row calls, for a
    stack of directions and for a stack of frames (as `hessian_K` uses)."""
    rng = np.random.default_rng(8)
    frame = random_frame_state(reduction_ctx, seed=3)
    frame = frame.shifted(rng.uniform(-0.3, 0.3, size=frame.coords.size))
    directions = np.hstack([reduction_ctx.quotient, reduction_ctx.symmetries]).T
    jacobian = hslag.reduction._realize_jacobian
    stacked = jacobian(reduction_ctx.metric, frame, directions)
    rows = [jacobian(reduction_ctx.metric, frame, d[None]) for d in directions]
    for got, want in zip(stacked, zip(*rows)):
        assert np.max(np.abs(got - np.concatenate(want))) <= 1e-15
    frames = frame.coords + FRAME_STEP * rng.normal(size=(4, frame.coords.size))
    stack = dataclasses.replace(frame, coords=frames)
    stacked = jacobian(reduction_ctx.metric, stack, directions)
    singles = [
        jacobian(reduction_ctx.metric, dataclasses.replace(frame, coords=c), directions)
        for c in frames
    ]
    for got, want in zip(stacked, zip(*singles)):
        assert np.max(np.abs(got - np.array(want))) <= 1e-15


def test_state_gradient_is_final_residual(coarse_ctx, monkeypatch):
    state = fresh_state(coarse_ctx)
    volume = hslag.reduction.graph_volume_and_gradient
    metric = ChartMetric(coarse_ctx.metric, state.unitary, state.t)
    args = (coarse_ctx.model, state.f.values, metric)
    vol, gradient, sensitivity = volume(*args)
    grad = _inverse(gradient, coarse_ctx.grid, False)
    assert state.gradient.values.tobytes() == grad.tobytes()
    assert vol == state.K_value
    for kept, final in zip(state.frame_sensitivity, sensitivity()):
        assert kept.tobytes() == final.tobytes()
    # the value-only volume of the jet contract: the centre value V0 that
    # second_variation_Q's transverse block reads from K_value
    assert volume(*args, need_gradient=False)[0] == vol

    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return volume(*args, **kwargs)

    monkeypatch.setattr(hslag.reduction, "graph_volume_and_gradient", counting)
    H_eval(coarse_ctx, state)
    assert calls == []


def test_solve_forms_the_frame_sensitivity_once(coarse_ctx, monkeypatch):
    """Each iteration's volume offers its affine sensitivity; a solve forms
    only the converged iteration's."""
    volumes, formed = [], []
    volume = hslag.reduction.graph_volume_and_gradient

    def counting(*args, **kwargs):
        vol, gradient, sensitivity = volume(*args, **kwargs)
        volumes.append(1)

        def forming():
            formed.append(len(volumes))
            return sensitivity()

        return vol, gradient, forming

    monkeypatch.setattr(hslag.reduction, "graph_volume_and_gradient", counting)
    state = fresh_state(coarse_ctx)
    assert state.iterations == len(volumes) > 3
    assert formed == [len(volumes)]


def test_stencils_around_a_state_solve_each_frame_once(coarse_ctx, monkeypatch):
    state = fresh_state(coarse_ctx)
    seen = []
    solve = hslag.reduction.projected_solve

    def counting(ctx, t, frame, init=None, **kwargs):
        seen.append((t, frame.coords.tobytes(), None if init is None else init.values.tobytes()))
        return solve(ctx, t, frame, init=init, **kwargs)

    monkeypatch.setattr(hslag.reduction, "projected_solve", counting)
    gradient_K(coarse_ctx, state)
    second_variation_Q(coarse_ctx, state, hessian_K(coarse_ctx, state))
    assert len(seen) == len(set(seen))
    # 16 gradient frames; the Hessian's 10 quotient frames are among them
    assert len(seen) == 16


def test_stencils_realize_their_new_frames_in_one_stack(coarse_ctx, monkeypatch):
    """`hessian_K` realizes its 10 neighbour frames in one real stacked call
    beside its complex-step Jacobian stack, a following `gradient_K` only its
    6 new frames (beside the centre's Jacobian), and no solve realizes
    alone.  A stacked frame agrees with its lone realization to a few ulps:
    the metric's batched products sum in another order."""
    state = fresh_state(coarse_ctx)
    realized = []
    realize = hslag.reduction.FrameState.realize

    def counting(frame, metric):
        realized.append((np.iscomplexobj(frame.coords), frame.coords.shape))
        return realize(frame, metric)

    monkeypatch.setattr(hslag.reduction.FrameState, "realize", counting)
    m, dim = coarse_ctx.quotient.shape[1], coarse_ctx.num_frame_coords
    hslag.reduction.hessian_K(coarse_ctx, state)
    assert realized == [(False, (2 * m, dim)), (True, (2 * m, m, dim))] == [
        (False, (10, 8)), (True, (10, 5, 8))
    ]
    realized.clear()
    gradient_K(coarse_ctx, state)
    assert realized == [(False, (6, dim)), (True, (dim, dim))]
    monkeypatch.undo()
    assert len(state._neighbours) == 16
    for near in state._neighbours.values():
        alone = near.frame.realize(coarse_ctx.metric)
        assert near.unitary.point.tobytes() == alone.point.tobytes()
        assert np.max(np.abs(near.unitary.matrix - alone.matrix)) <= 4 * np.finfo(float).eps


def test_kernel_pairings_equal_the_per_pair_loop(coarse_ctx):
    """`H_eval`, the factored gradient and the cross block pair with the
    reduced basis or the field directions in one matrix product; each equals
    the per-pair `vol_inner` loop to roundoff."""
    state = fresh_state(coarse_ctx)
    ctx, basis = coarse_ctx, reduced_basis(coarse_ctx)
    H = H_eval(ctx, state)
    loop_H = np.array([ctx.vol_inner(state.gradient, b) for b in basis])
    assert np.max(np.abs(H - loop_H)) <= 1e-14 * np.max(np.abs(loop_H))
    report = gradient_K(ctx, state)
    directions = np.hstack([ctx.quotient, ctx.symmetries]).T
    potentials = variation_potential(ctx, state, directions)
    loop_factored = np.array([np.dot([ctx.vol_inner(h, b) for b in basis], H) for h in potentials])
    assert np.max(np.abs(report.factored - loop_factored)) <= 1e-14 * np.max(np.abs(loop_factored))
    cross = second_variation_Q(ctx, state, hessian_K(ctx, state)).cross_block
    fields = hslag.reduction._field_directions(ctx)
    scale = state.t**ctx.n
    loop_cross = np.zeros_like(cross)
    for j, direction in enumerate(ctx.quotient.T):
        plus, minus = hslag.reduction._solve_stencil(ctx, state, direction[None])
        for i, field in enumerate(fields):
            pair_plus = ctx.vol_inner(plus.gradient, field)
            pair_minus = ctx.vol_inner(minus.gradient, field)
            loop_cross[i, j] = scale * (pair_plus - pair_minus) / (2.0 * FRAME_STEP)

    # a difference quotient of pairings that cancel: a pairing's roundoff is
    # relative to the pairing of the absolute values, and the quotient
    # divides it by 2 FRAME_STEP
    def absolute(fld):
        return ScalarField(ctx.grid, np.abs(fld.values), check=False)

    gradients = [absolute(s.gradient) for s in state._neighbours.values()]
    magnitude = np.max(ctx.vol_pairings(gradients, [absolute(f) for f in fields]))
    assert np.max(np.abs(cross - loop_cross)) <= 1e-14 * scale * magnitude / FRAME_STEP


def test_variation_potential_rows_equal_one_row_calls(coarse_ctx):
    state = fresh_state(coarse_ctx)
    directions = np.hstack([coarse_ctx.quotient, coarse_ctx.symmetries]).T
    stacked = variation_potential(coarse_ctx, state, directions)
    assert len(stacked) == len(directions)
    for h, direction in zip(stacked, directions):
        [single] = variation_potential(coarse_ctx, state, direction[None])
        assert np.max(np.abs(h.values - single.values)) <= 1e-15 * np.max(np.abs(single.values))


def test_gradient_K_takes_the_centre_jets_once(coarse_ctx, monkeypatch):
    """With every neighbour solved, the potentials take one `_graph_jets`
    call, at the centre: the neighbours' immersions need only grad f."""
    state = fresh_state(coarse_ctx)
    first = gradient_K(coarse_ctx, state)
    calls = []
    jets = hslag.weinstein._graph_jets

    def counting(model, f):
        calls.append(f)
        return jets(model, f)

    for module in (hslag.weinstein, hslag.reduction):
        monkeypatch.setattr(module, "_graph_jets", counting)
    again = gradient_K(coarse_ctx, state)
    assert len(calls) == 1 and calls[0] is state.f.values
    assert again.factored.tobytes() == first.factored.tobytes()


def test_projected_solve_norm_is_the_grid_norm(coarse_ctx, monkeypatch):
    """The residual norm read off the half spectrum by Parseval equals the
    vol_norm of the projected residual field, at every iteration.  The
    volume returns the gradient as its half spectrum, so the projected
    residual is that spectrum masked."""
    gradients = []
    volume = hslag.reduction.graph_volume_and_gradient

    def recording(*args, **kwargs):
        out = volume(*args, **kwargs)
        gradients.append(out[1])
        return out

    monkeypatch.setattr(hslag.reduction, "graph_volume_and_gradient", recording)
    state = fresh_state(coarse_ctx)
    assert len(state.residual_history) == len(gradients) > 3
    grid = coarse_ctx.grid
    mask = coarse_ctx.inverse_symbol[..., : grid.sizes[-1] // 2 + 1] != 0.0
    for rnorm, gradient in zip(state.residual_history, gradients):
        projected = ScalarField(grid, _inverse(gradient * mask, grid, False), check=False)
        grid_norm = coarse_ctx.vol_norm(projected)
        assert abs(rnorm - grid_norm) <= 1e-14 * grid_norm


def test_geometric_residual_takes_one_metric_jet(coarse_ctx, monkeypatch):
    """The certificate builds h once, from the Christoffel jet's G, and
    inverts h and G once each."""
    state = fresh_state(coarse_ctx)
    reference = geometric_residual(coarse_ctx, state)
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    for owner, name in ((type(coarse_ctx.metric), "value"), (type(coarse_ctx.metric), "derivative")):
        spy(owner, name)
    for name in ("inv", "det"):
        spy(np.linalg, name)
    assert geometric_residual(coarse_ctx, state) == reference
    assert sorted(calls) == ["derivative", "det", "inv", "inv"]


def test_saddle_test_ignores_stencil_noise():
    """The Hessian differences exact gradients, so its noise is about
    SOLVE_TOL / FRAME_STEP = 1e-8, under the 1e-6 saddle tolerance."""
    assert SOLVE_TOL / FRAME_STEP == pytest.approx(1e-8)
    assert hslag.reduction._SADDLE_TOL == 1e-6
    assert not hslag.reduction._is_saddle(-0.9e-6)
    assert hslag.reduction._is_saddle(-1.1e-6)


def test_optimize_frame_makes_no_value_only_volume(reduction_ctx, frame_optimum, monkeypatch):
    """Every volume of a frame search is a solve's gradient volume: the
    gradients are exact, and its one Hessian, formed at the critical point
    it classifies, takes 10 solves.  Only the second variation's transverse
    block makes value-only volumes: per field direction one gradient volume
    at f + eps h, then one value-only volume at f - eps h.  No volume
    takes the metric's forward jet: a gradient volume gets dG : M from the
    metric's linearization, and the search's one jet is its geometric
    residual's.  The start is the located torus kicked off its critical
    point."""
    volumes, solves, hessian_solves, jets, volume_jets = [], [], [], [], []
    volume = hslag.reduction.graph_volume_and_gradient
    solve = hslag.reduction.projected_solve
    hessian = hslag.reduction.hessian_K
    metric_type = type(reduction_ctx.metric)
    jet = metric_type.derivative

    def counting_jet(*args, **kwargs):
        jets.append(1)
        return jet(*args, **kwargs)

    def counting_volume(*args, **kwargs):
        volumes.append(kwargs.get("need_gradient", True))
        before = len(jets)
        out = volume(*args, **kwargs)
        volume_jets.append(len(jets) - before)
        return out

    def counting_solve(ctx, t, frame, init=None, **kwargs):
        solves.append(1)
        return solve(ctx, t, frame, init=init, **kwargs)

    def counting_hessian(ctx, state):
        before = len(solves)
        hess = hessian(ctx, state)
        hessian_solves.append(len(solves) - before)
        return hess

    monkeypatch.setattr(hslag.reduction, "graph_volume_and_gradient", counting_volume)
    monkeypatch.setattr(hslag.reduction, "projected_solve", counting_solve)
    monkeypatch.setattr(hslag.reduction, "hessian_K", counting_hessian)
    monkeypatch.setattr(metric_type, "derivative", counting_jet)
    kick = np.zeros(reduction_ctx.num_frame_coords)
    kick[[0, 6]] = 0.005
    start = frame_optimum.state.frame.shifted(kick)
    result = optimize_frame(reduction_ctx, T, start, OptimizeSettings(max_saddle_restarts=0))
    assert result.gradient_norm <= 1e-8
    assert volumes and all(volumes)
    assert hessian_solves == [10]
    assert not any(volume_jets) and len(jets) == 1
    # the blocks at the result: the transverse block's two volumes for each
    # of its 3 directions, and the cross block re-solves nothing
    volumes.clear()
    second_variation_Q(reduction_ctx, result.state, frame_block=result.hessian)
    assert volumes == [True, False] * 3
    assert not any(volume_jets)


def test_located_search_solves_only_the_quotient_stencil(coarse_ctx, frame_optimum, monkeypatch):
    """A search started at a located torus makes 11 solves: the cold one at
    its anchored start and the final Hessian's 2 x 5 quotient neighbours.
    Both reported gradients are envelope ones, so no frame shifted along
    ctx.symmetries is solved (those 6 solves made it 17)."""
    ctx, solved = coarse_ctx, []
    solve = hslag.reduction.projected_solve

    def counting(ctx, t, frame, init=None, **kwargs):
        solved.append((frame.coords, init is None))
        return solve(ctx, t, frame, init=init, **kwargs)

    monkeypatch.setattr(hslag.reduction, "projected_solve", counting)
    start = _turned_start(ctx, frame_optimum.state.unitary, 0.4)
    result = optimize_frame(ctx, T, start, OptimizeSettings(max_saddle_restarts=0))
    assert result.solver_evaluations == 1
    assert len(solved) == 11
    assert [cold for _, cold in solved] == [True] + [False] * 10
    for coords, _ in solved[1:]:
        assert np.linalg.norm(coords) == pytest.approx(FRAME_STEP, rel=1e-12)
        assert np.max(np.abs(ctx.symmetries.T @ coords)) <= 1e-12 * FRAME_STEP


def test_optimize_frame_reports_the_envelope_gradient_without_the_cross_check(
    coarse_ctx, frame_optimum, monkeypatch
):
    """A frame search calls neither `gradient_K` nor its finite differences
    nor the potentials nor the kernel pairing.  Its gradient norm is bitwise
    that of the envelope `frame_gradient` over the quotient at the state it
    returns, and its stabilizer gradient norm bitwise that of the envelope
    along the symmetries."""
    calls = []
    for name in ("gradient_K", "_fd_gradient", "variation_potential", "H_eval"):
        original = getattr(hslag.reduction, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(hslag.reduction, name, counting)
    ctx = coarse_ctx
    start = _turned_start(ctx, frame_optimum.state.unitary, 0.4)
    result = optimize_frame(ctx, T, start, OptimizeSettings(max_saddle_restarts=0))
    assert calls == []
    monkeypatch.undo()
    quotient = frame_gradient(ctx, result.state, ctx.quotient.T)
    assert result.gradient_norm == float(np.linalg.norm(quotient))
    envelope = frame_gradient(ctx, result.state, ctx.symmetries.T)
    assert result.stabilizer_gradient_norm == float(np.linalg.norm(envelope))


def test_second_torus_builds_no_metric_workspace(frame_optimum, monkeypatch):
    """The metric's workspaces hold a located torus's whole working set: at
    grid 24, order-1 chunks of 256 and 64 points beside the reverse sweep's,
    the real frame stacks' of 1 and 10 frames and the complex ones' of 3, 5
    and 50, 8 in all.  Value-only volumes linearize like gradient volumes,
    so there is no order-0 chunk.  After one torus, a second search and its
    second-variation blocks, from the same torus turned along the diagonal
    torus, rebuild none."""
    ctx = build_context(TorusModel(RADII, grid_size=24))
    located = frame_optimum.state.unitary
    builds = []
    build = hslag.ambient._JetWorkspace.__init__

    def counting(self, metric, key):
        builds.append(key)
        build(self, metric, key)

    monkeypatch.setattr(hslag.ambient._JetWorkspace, "__init__", counting)

    def locate(turn):
        start = _turned_start(ctx, located, turn)
        result = optimize_frame(ctx, T, start, OptimizeSettings(max_saddle_restarts=0))
        second_variation_Q(ctx, result.state, frame_block=result.hessian)

    locate(0.4)
    first = len(builds)
    locate(1.1)
    assert first == len(set(builds)) == 8
    assert not any(key[0] in (256, 64) and key[2] == 0 for key in builds)
    assert len(builds) == first


# ---------------------------------------------------------------------------
# the trust-region search and the frame exponential
# ---------------------------------------------------------------------------


def test_search_at_its_solve_budget_returns_the_hessian_at_its_state(
    coarse_ctx, monkeypatch, tmp_path
):
    """A search that stops at _MAX_SEARCH_SOLVES, not at |dK| <= _POLISH_TOL,
    forms its one Hessian at the state it returns, and `reduce` reports
    such a torus as failed: exit 1 with a full manifest."""
    hessian, states = hslag.reduction.hessian_K, []

    def recording(ctx, state):
        states.append(state)
        return hessian(ctx, state)

    monkeypatch.setattr(hslag.reduction, "_MAX_SEARCH_SOLVES", 3)
    monkeypatch.setattr(hslag.reduction, "hessian_K", recording)
    result = optimize_frame(coarse_ctx, T, random_frame_state(coarse_ctx, seed=1))
    assert result.solver_evaluations == 3
    assert len(states) == 1 and states[0] is result.state
    assert _same_bits(result.hessian, hessian(coarse_ctx, result.state))
    out = tmp_path / "budget"
    assert main(["reduce", "--grid", "16", "--out", str(out)]) == 1
    manifest = load_manifest(out / "manifest.json")
    assert manifest["passed"] is False and "error" not in manifest
    assert manifest["payload"]["solver_evaluations"] == 3
    assert not all(check["passed"] for check in manifest["checks"])


def _model_case(case, rng):
    """(model, gradient, radius) for each branch of the subproblem."""
    vecs = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    eigs = {
        "interior": [0.5, 0.8, 1.0, 1.5, 2.0],
        "boundary": [1e-3, 0.01, 0.1, 1.0, 2.0],
        "indefinite": [-0.3, -1e-4, 0.2, 1.0, 3.0],
        "hard": [-0.3, 0.1, 0.2, 1.0, 3.0],
        "saddle": [-2e-6, 1e-4, 0.2, 1.0, 3.0],
        "zero": [0.0] * 5,
    }[case]
    coeffs = {"interior": 0.1, "boundary": 1.0}.get(case, 0.05) * rng.normal(size=5)
    if case in ("hard", "saddle"):
        coeffs[0] = 0.0
    if case == "saddle":
        coeffs[:] = 0.0
    return (vecs * eigs) @ vecs.T, vecs @ coeffs, 0.7


@pytest.mark.parametrize("case", ["interior", "boundary", "indefinite", "hard", "saddle", "zero"])
def test_trust_step_meets_the_global_optimality_conditions(case):
    """The step is the subproblem's global minimizer by the Moré-Sorensen
    conditions: (B + lam I) p = -g for one lam >= 0 with B + lam I positive
    semidefinite and lam (radius - |p|) = 0; and its value is the model's.
    The zero model, the search's first, steps down the gradient to the
    radius, and warnings are errors here, so it divides by no zero."""
    B, g, radius = _model_case(case, np.random.default_rng(3))
    p, predicted = hslag.reduction._trust_step(B, g, radius)
    lam = -(p @ (B @ p + g)) / (p @ p)
    assert lam >= -1e-12
    assert np.linalg.norm(B @ p + g + lam * p) <= 1e-12
    assert np.linalg.eigvalsh(B + lam * np.eye(5))[0] >= -1e-12
    assert np.linalg.norm(p) <= radius * (1.0 + 1e-12)
    assert lam * (radius - np.linalg.norm(p)) <= 1e-12
    assert predicted == pytest.approx(g @ p + 0.5 * p @ B @ p, rel=1e-12, abs=1e-15)
    assert (lam <= 1e-12) == (case == "interior")
    if case == "zero":
        assert np.linalg.norm(p + radius * g / np.linalg.norm(g)) <= 1e-15
        assert predicted == pytest.approx(-radius * np.linalg.norm(g), rel=1e-15)


def test_search_escapes_a_saddle_only_while_escapes_remain(coarse_ctx, monkeypatch):
    """On a synthetic K with a saddle at the start and minima at y_0 = +-1/2
    along the first quotient axis, max_saddle_restarts=0 stops at the
    saddle, and one escape finds a minimum: the first hard-case step, of the
    full radius, overshoots and is rejected; the next, of half of it, lands.
    With a budget of two solves the escape's one trial is rejected, and the
    search returns the saddle with the one Hessian it formed there."""
    Q = coarse_ctx.quotient
    curvature = np.array([0.0, 1.0, 1.0, 1.0, 1.0])

    def coordinates(frame):
        return Q.T @ frame.coords

    def K(y):
        return -y[0] ** 2 + 2.0 * y[0] ** 4 + 0.5 * np.sum(curvature * y**2)

    def solve(ctx, t, frame, init=None):
        return types.SimpleNamespace(
            frame=frame, f=None, K_value=K(coordinates(frame)), residual_norm=0.0,
            residual_history=[0.0],
        )

    def gradient(ctx, state, directions):
        y = coordinates(state.frame)
        return curvature * y + np.eye(5)[0] * (-2.0 * y[0] + 8.0 * y[0] ** 3)

    hessian_states = []

    def hessian(ctx, state):
        hessian_states.append(state)
        y = coordinates(state.frame)
        return np.diag(curvature + np.eye(5)[0] * (-2.0 + 24.0 * y[0] ** 2))

    monkeypatch.setattr(hslag.reduction, "projected_solve", solve)
    monkeypatch.setattr(hslag.reduction, "frame_gradient", gradient)
    monkeypatch.setattr(hslag.reduction, "hessian_K", hessian)
    monkeypatch.setattr(hslag.reduction, "geometric_residual", lambda ctx, state: (0.0, 0.0, 0.0))
    start = random_frame_state(coarse_ctx, seed=1)

    stuck = optimize_frame(coarse_ctx, T, start, OptimizeSettings(max_saddle_restarts=0))
    assert (stuck.saddle_restarts, stuck.is_minimum, stuck.solver_evaluations) == (0, False, 1)
    assert stuck.hessian_eigenvalues[0] == -2.0

    found = optimize_frame(coarse_ctx, T, start)
    assert (found.saddle_restarts, found.is_minimum, found.solver_evaluations) == (1, True, 3)
    assert [row["outcome"] for row in found.trace] == ["anchor", "rejected", "ratio"]
    assert [row["radius"] for row in found.trace] == [1.0, 1.0, 0.5]
    assert abs(coordinates(found.state.frame)[0]) == pytest.approx(0.5, abs=1e-15)
    assert found.state.K_value == pytest.approx(-0.125, abs=1e-15)

    monkeypatch.setattr(hslag.reduction, "_MAX_SEARCH_SOLVES", 2)
    hessian_states.clear()
    cut = optimize_frame(coarse_ctx, T, start)
    assert (cut.saddle_restarts, cut.is_minimum, cut.solver_evaluations) == (1, False, 2)
    assert [row["outcome"] for row in cut.trace] == ["anchor", "rejected"]
    assert len(hessian_states) == 1 and hessian_states[0] is cut.state
    assert cut.state.frame.coords.tobytes() == stuck.state.frame.coords.tobytes()
    assert cut.hessian_eigenvalues[0] == -2.0


def _u_generators(n, norms, rng):
    """Real embeddings of random u(n) elements, scaled to the given 1-norms."""
    basis = hslag.reduction._algebra_embedding(n)
    A = np.tensordot(rng.normal(size=(len(norms), n * n)), basis, axes=1)
    return A * (norms / np.max(np.sum(np.abs(A), axis=-2), axis=-1))[:, None, None]


@pytest.mark.parametrize("n", [2, 3])
def test_frame_exponential_matches_scipy_expm(n):
    """One stacked call against scipy.linalg.expm matrix by matrix, for
    1-norms from 1e-3 to 4.  Against a 40-digit reference the scipy value is
    itself off by up to about 4e-15 at norm 4, so the bound here is 5e-15;
    `test_frame_exponential_is_accurate_to_a_few_ulps` holds the series to
    1e-15.  A matrix alone gives what it gives in the stack."""
    A = _u_generators(n, np.geomspace(1e-3, 4.0, 30), np.random.default_rng(n))
    E = hslag.reduction._expm(A)
    for mine, a in zip(E, A):
        reference = scipy.linalg.expm(a)
        assert np.max(np.abs(mine - reference)) <= 5e-15 * np.max(np.abs(reference))
    assert hslag.reduction._expm(A[-1]).tobytes() == E[-1].tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_frame_exponential_is_accurate_to_a_few_ulps(n):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    A = _u_generators(n, np.geomspace(1e-3, 4.0, 12), np.random.default_rng(10 + n))
    for mine, a in zip(hslag.reduction._expm(A), A):
        exact = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
        assert np.max(np.abs(mine - exact)) <= 1e-15 * np.max(np.abs(exact))


@pytest.mark.parametrize("n", [2, 3])
def test_frame_exponential_complex_step_is_the_frechet_derivative(n):
    """The scaling reads only the real part, so the imaginary part of a
    complex step is the Frechet derivative at every norm."""
    rng = np.random.default_rng(20 + n)
    A = _u_generators(n, np.array([1e-3, 0.3, 1.0, 2.0, 4.0]), rng)
    D = _u_generators(n, np.ones(len(A)), rng)
    h = 1e-20
    derivative = hslag.reduction._expm(A + 1j * h * D).imag / h
    for mine, a, d in zip(derivative, A, D):
        reference = scipy.linalg.expm_frechet(a, d, compute_expm=False)
        assert np.max(np.abs(mine - reference)) <= 2e-15 * np.max(np.abs(reference))
