"""End-to-end acceptance checks, one test per headline guarantee.

Each test states its tolerance inline and is independently verifiable:
analytic spectra, finite differences of the discrete volume itself, and
geometric residuals computed outside the reduction pipeline serve as oracles.
"""

import time

import numpy as np
from scipy.linalg import subspace_angles

from oracles import (
    band_limited_field,
    moment_basis,
    restrict_moment,
    second_variation_consistency,
)

from hslag.ambient import EuclideanMetric, default_perturbed_metric, estimate_sweep, unitary_frame
from hslag.geomcore import ScalarField, hs_residual, l2_norm
from hslag.moser import QuadraticPerturbedForm, moser_flow
from hslag.operators import kernel_dimension
from hslag.reduction import (
    geometric_residual,
    gradient_K,
    optimize_frame,
    projected_solve,
    random_frame_state,
    second_variation_Q,
)

T = 0.05  # the scale of the shared reduction problem


def test_criterion_01_model_immersions_stationary(torus, circle_sphere):
    for imm in (torus, circle_sphere):
        assert np.max(np.abs(hs_residual(imm, EuclideanMetric(2)).defect.values)) <= 1e-8


def test_criterion_02_circle_sphere_spectrum_analytic(cs_spectrum):
    eigs = cs_spectrum.eigenvalues
    for k in range(5):
        for l in range(5):
            if (k + l) % 2 != 0:
                continue
            lam = float(l * l)
            analytic = (k * k + lam - 2.0) ** 2 + 4.0 * (k * k - 1.0)
            numeric = eigs[np.argmin(np.abs(eigs - analytic))]
            if abs(analytic) > 1e-8:
                assert abs(numeric - analytic) / abs(analytic) <= 1e-4
            else:
                assert abs(numeric) <= 1e-4


def test_criterion_03_kernel_dimension_and_moment_span(
    flat_spectrum, cs_spectrum, torus, circle_sphere
):
    for spectrum, imm in ((flat_spectrum, torus), (cs_spectrum, circle_sphere)):
        eigs = spectrum.eigenvalues
        assert kernel_dimension(eigs) == 7
        assert np.max(np.abs(eigs[:7])) <= 1e-5
        assert eigs[7] / max(np.max(np.abs(eigs[:7])), 1e-300) >= 100.0

        kernel = spectrum.eigenfields[: kernel_dimension(eigs)]
        K = np.stack([b.values.reshape(-1) for b in kernel], axis=1)
        restrictions = [restrict_moment(Q, imm) for Q in moment_basis(2)]
        cols = [
            r.values.reshape(-1)
            for r in restrictions
            if l2_norm(r) > 1e-10
        ]
        R = np.stack(cols, axis=1)
        q, s, _ = np.linalg.svd(R, full_matrices=False)
        Rb = q[:, s > 1e-10 * s[0]]
        assert Rb.shape[1] <= K.shape[1]
        assert np.max(subspace_angles(K, Rb)) <= 1e-5


def test_criterion_04_model_lagrangians_stable(flat_spectrum, cs_spectrum):
    assert float(np.min(flat_spectrum.eigenvalues)) >= -1e-6
    assert float(np.min(cs_spectrum.eigenvalues)) >= -1e-6


def test_criterion_05_operator_matches_volume_hessian(
    flat_operator, torus_model, rng
):
    grid = torus_model.grid()
    for _ in range(10):
        vals = band_limited_field(grid, rng, scale=1.0)
        f = ScalarField(grid, vals, check=False)
        fd2, quad = second_variation_consistency(torus_model, f, flat_operator)
        assert abs(fd2 - quad) / max(abs(fd2), 1e-12) <= 1e-4


def test_criterion_06_chart_metric_scaling_bounds():
    metric = default_perturbed_metric(2, amplitude=0.05, seed=0)
    rng = np.random.default_rng(3)
    frames = [
        unitary_frame(metric, rng.uniform(0.0, 2.0 * np.pi, size=4), seed=i)
        for i in range(3)
    ]
    report = estimate_sweep(metric, frames, (0.1, 0.05, 0.025))
    for k in (0, 1, 2):
        assert report.ratios[k] <= 2.0
    assert max(report.ratios.values()) <= 2.0


def test_criterion_07_moser_normalization():
    report = moser_flow(QuadraticPerturbedForm(2, c=0.1), 2)
    assert report.pullback_defect <= 1e-6
    assert report.origin_defect <= 1e-8
    assert report.identity_defect <= 1e-8


def test_criterion_08_projected_solve_family(reduction_ctx):
    ctx = reduction_ctx
    frame = random_frame_state(ctx, seed=11)
    mesh = ctx.grid.meshgrid()
    alt_init = ScalarField(
        ctx.grid, 0.01 * np.cos(3.0 * mesh[0]) * np.cos(mesh[1]), check=False
    )
    norms = {}
    for t in (0.08, 0.04, 0.02):
        state = projected_solve(ctx, t, frame)
        assert state.residual_norm <= 1e-10
        assert state.kernel_overlap(ctx) <= 1e-10
        other = projected_solve(ctx, t, frame, init=alt_init)
        diff = ScalarField(ctx.grid, state.f.values - other.f.values, check=False)
        assert ctx.vol_norm(diff) <= 1e-9
        norms[t] = ctx.vol_norm(state.f)
    ts = sorted(norms)
    slope = float(np.polyfit(np.log(ts), np.log([norms[t] for t in ts]), 1)[0])
    assert slope >= 0.8


def test_criterion_09_gradient_factorization(reduction_ctx):
    ctx = reduction_ctx
    m = ctx.quotient.shape[1]
    for seed in (101, 102, 103, 104, 105):
        frame = random_frame_state(ctx, seed=seed)
        state = projected_solve(ctx, T, frame)
        report = gradient_K(ctx, state)
        scale = float(np.max(np.abs(report.fd)))
        if scale >= 1e-6:
            rel = float(
                np.max(np.abs(report.fd - report.factored))
            ) / scale
            assert rel <= 1e-3
        else:
            assert float(np.max(np.abs(report.factored))) <= 1e-6
        assert np.max(np.abs(report.fd[m:])) <= 1e-8
        assert np.max(np.abs(report.factored[m:])) <= 1e-8


def test_criterion_10_optimizer_locates_stationary_tori(
    reduction_ctx, frame_optimum_timed
):
    ctx = reduction_ctx
    first_result, first_elapsed = frame_optimum_timed
    start = time.perf_counter()
    results = [first_result]
    for seed in (2, 3):
        frame = random_frame_state(ctx, seed=seed)
        results.append(optimize_frame(ctx, T, frame))
    elapsed = first_elapsed + (time.perf_counter() - start)
    for result in results:
        assert result.gradient_norm <= 1e-8
        relative, _, _ = geometric_residual(ctx, result.state)
        assert relative <= 1e-5
        # the work, bounded independently of machine load: no spurious saddle
        # kicks from stencil noise, and a bounded number of transverse solves
        assert result.saddle_restarts == 0
        assert result.solver_evaluations <= 120
    assert elapsed <= 300.0


def test_criterion_11_second_variation_blocks(reduction_ctx, frame_optimum):
    report = second_variation_Q(
        reduction_ctx, frame_optimum.state, frame_block=frame_optimum.hessian
    )
    assert report.transverse_relative_error <= 0.1
    assert report.cross_relative <= 1e-3
    assert float(np.min(report.frame_eigenvalues)) >= -1e-8
