"""Spectral analysis of the linearized stationarity operator.

Oracles: the complex-step Hessian of the discrete volume (which the analytic
and the probed flat symbols must reproduce column by column), the analytic
Fourier multiplier on the flat torus, the closed-form circle-sphere
eigenvalue table, Richardson finite differences of the exact discrete
gradient, and five-point second differences of the volume itself.
"""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from oracles import (
    GridOperator,
    OperatorSymmetryError,
    _assemble_graph_hessian,
    assemble_by_finite_differences,
    assemble_perturbed_operator,
    band_limited_field,
    dense_eigensolve,
    flat_chart,
    fourier_multiply,
    moment_basis,
    operator_distance,
    reduced_basis,
    restrict_moment,
    rigidity_prediction,
    second_variation_consistency,
    symbol_apply,
)

from hslag.ambient import ChartMetric, default_perturbed_metric, frame_fit, unitary_frame
from hslag.errors import SpectralGapError
from hslag.geomcore import (
    GridDescriptor,
    ScalarField,
    _inverse,
    band_mask,
    l2_inner,
    l2_norm,
    mode_mesh,
)
from hslag.models import TorusModel, circle_sphere_spectrum
from hslag.operators import (
    _CS_STEP,
    SymbolOperator,
    _unit_modes,
    assemble_flat_operator,
    eigensolve,
    kernel_dimension,
    probe_flat_operator,
    torus_multiplier,
)
from hslag.reduction import build_context
from hslag.weinstein import graph_volume_and_gradient

RADII = (1.0, 1.3)


# ---------------------------------------------------------------------------
# flat torus operator
# ---------------------------------------------------------------------------


def test_torus_assembly_symmetric(hessian_oracle):
    assert hessian_oracle(32, raw=True).asymmetry() <= 1e-12


def test_torus_matches_multiplier(hessian_oracle, torus_model):
    hessian = hessian_oracle(32)
    grid = torus_model.grid()
    mesh = grid.meshgrid()
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            if k1 == 0 and k2 == 0:
                continue
            lam = float(torus_multiplier(RADII, [k1, k2]))
            for phase, trig in ((0.0, np.cos), (0.0, np.sin)):
                vals = trig(k1 * mesh[0] + k2 * mesh[1] + phase)
                if np.max(np.abs(vals)) < 1e-12:
                    continue
                f = ScalarField(grid, vals, check=False)
                ray = l2_inner(f, hessian.apply(f)) / l2_inner(f, f)
                if abs(lam) > 1e-8:
                    assert abs(ray - lam) / abs(lam) <= 1e-9
                else:
                    assert abs(ray) <= 1e-9


def test_torus_kernel_dimension_and_gap(flat_spectrum):
    assert kernel_dimension(flat_spectrum.eigenvalues) == 7
    eigs = flat_spectrum.eigenvalues
    gap = 4.0 / (RADII[0] * RADII[1]) ** 2
    assert abs(eigs[7] - gap) / gap <= 1e-9
    assert eigs[7] / max(np.max(np.abs(eigs[:7])), 1e-300) >= 100.0


def test_torus_stability(flat_spectrum):
    assert float(np.min(flat_spectrum.eigenvalues)) >= -1e-6


def test_moment_restrictions_span_kernel(flat_spectrum, torus, torus_model):
    kern = flat_spectrum.eigenfields[: kernel_dimension(flat_spectrum.eigenvalues)]
    K = np.stack([b.values.reshape(-1) for b in kern], axis=1)
    R = np.stack(
        [restrict_moment(Q, torus).values.reshape(-1) for Q in moment_basis(2)], axis=1
    )
    q, s, _ = np.linalg.svd(R, full_matrices=False)
    Rb = q[:, s > 1e-10 * s[0]]
    assert Rb.shape[1] == rigidity_prediction(torus_model) == 7
    assert np.max(subspace_angles(K, Rb)) <= 1e-5


def test_moment_restrictions_annihilated(flat_operator, torus):
    for Q in moment_basis(2):
        r = restrict_moment(Q, torus)
        nrm = l2_norm(r)
        if nrm < 1e-12:
            continue
        assert l2_norm(symbol_apply(flat_operator, r)) / nrm <= 1e-6


def test_second_variation_matches_quadratic_form(flat_operator, torus_model, rng):
    grid = torus_model.grid()
    for _ in range(10):
        vals = band_limited_field(grid, rng, scale=1.0)
        f = ScalarField(grid, vals, check=False)
        fd2, quad = second_variation_consistency(torus_model, f, flat_operator)
        assert abs(fd2 - quad) / max(abs(fd2), 1e-12) <= 1e-4


def test_second_variation_kernel_direction(flat_operator, torus_model):
    grid = torus_model.grid()
    mesh = grid.meshgrid()
    f = ScalarField(grid, np.cos(mesh[0] - mesh[1]), check=False)
    fd2, quad = second_variation_consistency(torus_model, f, flat_operator)
    assert abs(quad) <= 1e-8
    assert abs(fd2) <= 1e-5


def test_complex_step_matches_finite_differences():
    model = TorusModel(RADII, grid_size=8)
    cs = _assemble_graph_hessian(model, flat_chart(model.n)).symmetrized()
    fd = assemble_by_finite_differences(model, flat_chart(model.n))
    assert operator_distance(cs, fd) <= 1e-6


def test_spectrum_grid_convergence(hessian_oracle):
    eigs = [dense_eigensolve(hessian_oracle(size), count=14).eigenvalues for size in (16, 24)]
    assert np.max(np.abs(eigs[0] - eigs[1])) <= 1e-8


def test_band_restriction_excludes_nyquist(hessian_oracle, torus_model):
    grid = torus_model.grid()
    basis = hessian_oracle(32).basis_matrix
    assert basis is not None
    n = grid.sizes[0]
    assert basis.shape == (grid.num_nodes, grid.num_nodes - (2 * n - 1))
    spec = np.fft.fftn(basis.reshape(grid.sizes + (-1,)), axes=(0, 1))
    assert np.max(np.abs(spec[n // 2, :, :])) <= 1e-10
    assert np.max(np.abs(spec[:, n // 2, :])) <= 1e-10
    gram = basis.T @ basis
    assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-10


@pytest.mark.parametrize("size", [16, 32])
def test_symbol_matches_complex_step_hessian(size, hessian_oracle):
    hessian = hessian_oracle(size)
    model = TorusModel(radii=RADII, grid_size=size)
    grid = hessian.grid
    basis = hessian.basis_matrix
    dense = dense_eigensolve(hessian).eigenvalues
    # the analytic and the probed symbol, each applied to every band basis
    # column and read back in that basis
    columns = [ScalarField(grid, b.reshape(grid.sizes), check=False) for b in basis.T]
    for symbol in (assemble_flat_operator(model), probe_flat_operator(model)):
        applied = np.stack(
            [symbol_apply(symbol, column).values for column in columns],
            axis=-1,
        ).reshape(grid.num_nodes, -1)
        top = float(np.max(symbol.symbol[symbol.admissible]))
        assert np.max(np.abs(basis.T @ applied - hessian.matrix)) <= 1e-12 * top
        sorted_symbol = eigensolve(symbol).eigenvalues
        assert dense.shape == sorted_symbol.shape
        assert np.max(np.abs(dense - sorted_symbol)) <= 1e-12 * top


@pytest.mark.parametrize(
    "radii, size", [(RADII, 16), (RADII, 32), ((1.0, 1.3, 1.6), 8)], ids=["n2-16", "n2-32", "n3-8"]
)
def test_probed_symbol_is_circulant(radii, size):
    """Freivalds's check (MFCS 1977) of the circulant claim the probe rests
    on: the complex-step Hessian-vector product at a random band field g is
    the probed symbol times g's transform."""
    model = TorusModel(radii=radii, grid_size=size)
    grid = model.grid()
    probed = probe_flat_operator(model)
    rng = np.random.default_rng(20261019)
    g = fourier_multiply(rng.normal(size=grid.sizes), grid, band_mask(grid).astype(float))
    _, P_hat, _ = graph_volume_and_gradient(model, 1j * _CS_STEP * g, flat_chart(model.n))
    hessian_g = np.fft.fftn(_inverse(P_hat[1], grid, False) / _CS_STEP)
    symbol_g = np.where(probed.admissible, probed.symbol, 0.0) * np.fft.fftn(g)
    assert np.max(np.abs(hessian_g - symbol_g)) <= 1e-14 * np.max(np.abs(hessian_g))


@pytest.mark.parametrize("size", [8, 16])
def test_probed_symbol_matches_multiplier_at_n3(size):
    model = TorusModel(radii=(1.0, 1.3, 1.6), grid_size=size)
    probed = probe_flat_operator(model)
    analytic = torus_multiplier(model.radii, mode_mesh(probed.grid))
    band = probed.admissible
    top = float(np.max(analytic[band]))
    assert np.max(np.abs(probed.symbol - analytic)[band]) <= 1e-14 * top
    assert kernel_dimension(probed.sorted_modes()[0]) == rigidity_prediction(model) == 13


@pytest.mark.parametrize("size", [16, 32])
def test_context_inverse_and_projector_match_dense(size, hessian_oracle):
    hessian = hessian_oracle(size)
    ctx = build_context(TorusModel(RADII, grid_size=size))
    grid = ctx.grid
    spec = dense_eigensolve(hessian)
    kdim = kernel_dimension(spec.eigenvalues)
    assert kdim == len(ctx.kernel_modes) == 7
    # dense node-space references from eigh of the complex-step Hessian; the
    # eigenfields are L^2-orthonormal, so the projectors carry the node weight.
    # The transverse projector is the one onto the band's non-kernel
    # eigenfields: off the band (the Nyquist modes) it is zero, as the
    # pseudo-inverse is.
    V = np.stack([fld.values.reshape(-1) for fld in spec.eigenfields], axis=1)
    w = grid.node_weight()
    pinv = (V[:, kdim:] / spec.eigenvalues[kdim:]) @ V[:, kdim:].T * w
    proj = V[:, kdim:] @ V[:, kdim:].T * w
    indicators = np.eye(grid.num_nodes).reshape((grid.num_nodes,) + grid.sizes)
    ctx_pinv = fourier_multiply(indicators, grid, ctx.inverse_symbol).reshape(len(indicators), -1).T
    band = ctx.inverse_symbol != 0.0
    ctx_proj = fourier_multiply(indicators, grid, band).reshape(grid.num_nodes, -1).T
    assert np.max(np.abs(ctx_pinv - pinv)) <= 1e-11 * np.max(np.abs(pinv))
    assert np.max(np.abs(ctx_proj - proj)) <= 1e-11 * np.max(np.abs(proj))


def test_three_torus_kernel_matches_rigidity():
    model = TorusModel(radii=(1.0, 1.3, 1.7), grid_size=12)
    spec = eigensolve(assemble_flat_operator(model), count=20)
    assert kernel_dimension(spec.eigenvalues) == rigidity_prediction(model) == 13


# ---------------------------------------------------------------------------
# circle-sphere quotient operator
# ---------------------------------------------------------------------------


def test_circle_sphere_kernel(cs_spectrum, circle_sphere_model):
    kdim = kernel_dimension(cs_spectrum.eigenvalues)
    assert kdim == rigidity_prediction(circle_sphere_model) == 7


def test_circle_sphere_spectrum_multiset(cs_spectrum):
    rows = circle_sphere_spectrum(2, k_max=20, l_max=20)
    analytic = sorted(e for (_k, _l, m, e) in rows for _ in range(m) if e <= 300.0)
    computed = sorted(float(x) for x in cs_spectrum.eigenvalues if x <= 300.0 + 1e-6)
    assert len(analytic) == len(computed)
    assert np.max(np.abs(np.array(analytic) - np.array(computed))) <= 1e-8


def test_circle_sphere_low_modes(cs_spectrum):
    rows = circle_sphere_spectrum(2, k_max=4, l_max=4)
    for k, l, _m, eig in rows:
        if eig > 300.0:
            continue
        dev = np.min(np.abs(cs_spectrum.eigenvalues - eig))
        assert dev <= 1e-4 * max(1.0, abs(eig)), (k, l, eig, dev)


def test_circle_sphere_eigenfields_deck_invariant(cs_spectrum, circle_sphere_model):
    grid = circle_sphere_model.grid()
    shift = grid.quotient_shift()
    for fld in cs_spectrum.eigenfields[:12]:
        rolled = np.roll(fld.values, shift, axis=(0, 1))
        assert np.max(np.abs(rolled - fld.values)) <= 1e-10


def test_circle_sphere_stability(cs_spectrum):
    assert float(np.min(cs_spectrum.eigenvalues)) >= -1e-6


# ---------------------------------------------------------------------------
# perturbed-metric operator
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pert_setup(hessian_oracle):
    flat = hessian_oracle(16)
    metric = default_perturbed_metric(n=2, amplitude=0.05, seed=0)
    p = np.array([0.15, -0.3, 0.42, 0.07])
    frame = unitary_frame(metric, p)
    return TorusModel(RADII, grid_size=16), metric, frame, flat


def test_perturbed_operator_linear_drift(pert_setup):
    model, metric, frame, flat = pert_setup
    dists = []
    for t in (0.08, 0.04, 0.02):
        op_t = assemble_perturbed_operator(model, ChartMetric(metric, frame, t))
        dists.append(operator_distance(op_t, flat))
    assert 1.4 <= dists[0] / dists[1] <= 2.6
    assert 1.4 <= dists[1] / dists[2] <= 2.6
    assert dists[0] / 0.08 <= 1e3


def test_perturbed_spectrum_drift(pert_setup):
    model, metric, frame, flat = pert_setup
    t = 0.05
    spec_t = dense_eigensolve(
        assemble_perturbed_operator(model, ChartMetric(metric, frame, t)), count=10
    )
    spec_0 = dense_eigensolve(flat, count=10)
    # kernel eigenvalues move at most O(t), the gap eigenvalues stay close
    assert np.max(np.abs(spec_t.eigenvalues[:7])) <= 1.0 * t
    assert np.max(np.abs(spec_t.eigenvalues[7:] - spec_0.eigenvalues[7:])) <= 1.0 * t


def test_torus_action_leaves_spectrum_invariant(pert_setup):
    model, metric, frame, _ = pert_setup
    t = 0.05
    base = dense_eigensolve(
        assemble_perturbed_operator(model, ChartMetric(metric, frame, t)), count=12
    )
    s = np.array([0.7, -0.4])
    gamma = np.diag(np.exp(1j * s))
    from hslag.ambient import unitary_embedding

    rotated = frame_fit(metric, frame.point, frame.matrix @ unitary_embedding(gamma))
    spec_r = dense_eigensolve(
        assemble_perturbed_operator(model, ChartMetric(metric, rotated, t)), count=12
    )
    assert np.max(np.abs(base.eigenvalues - spec_r.eigenvalues)) <= 1e-8


# ---------------------------------------------------------------------------
# kernel utilities and guards
# ---------------------------------------------------------------------------


def test_project_out_kernel(reduction_ctx, rng):
    grid = reduction_ctx.grid
    f = ScalarField(grid, band_limited_field(grid, rng, scale=1.0), check=False)
    mask = reduction_ctx.inverse_symbol != 0.0
    g = ScalarField(grid, fourier_multiply(f.values, grid, mask), check=False)
    for b in _unit_modes(grid, reduction_ctx.kernel_modes):
        assert abs(l2_inner(g, ScalarField(grid, b, check=False))) <= 1e-10
    g2 = ScalarField(grid, fourier_multiply(g.values, grid, mask), check=False)
    assert np.max(np.abs(g2.values - g.values)) <= 1e-12


def test_zero_mean_kernel_basis():
    for size in (24, 32):
        ctx = build_context(TorusModel(RADII, grid_size=size))
        basis = reduced_basis(ctx)
        assert len(basis) == 6
        for b in basis:
            assert abs(np.mean(b.values)) <= 1e-12
        gram = np.array([[ctx.vol_inner(a, b) for b in basis] for a in basis])
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-12
        # with the constant they span the whole kernel
        span = np.stack(
            [b.values.reshape(-1) for b in basis] + [np.ones(ctx.grid.num_nodes)], axis=1
        )
        for b in _unit_modes(ctx.grid, ctx.kernel_modes):
            coeffs = np.linalg.lstsq(span, b.reshape(-1), rcond=None)[0]
            assert np.max(np.abs(span @ coeffs - b.reshape(-1))) <= 1e-12


@pytest.mark.parametrize("size", [24, 32])
def test_negative_wave_number_modes_match_mpmath(size):
    """The unit modes with a negative wave number that the package reads,
    the flat kernel's sin modes k = (-1, 0), (0, -1), (-1, 1) and the
    transverse probe k = (0, -2), equal their exact values to 4e-16: sin of
    2 pi k.j / N over the rectangle-rule norm pi sqrt 2, in 40-digit mpmath.
    Phases formed from the wrapped index k mod N read 2.3e-15 to 6.9e-15."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    grid = GridDescriptor(sizes=(size, size), periods=(2 * np.pi, 2 * np.pi))
    waves = [(-1, 0), (0, -1), (-1, 1), (0, -2)]
    indices = np.ravel_multi_index(tuple(np.array(waves).T), grid.sizes, mode="wrap")
    norm = mpmath.pi * mpmath.sqrt(2)
    nodes = np.indices(grid.sizes).reshape(2, -1).T.tolist()
    for field, (k1, k2) in zip(_unit_modes(grid, indices), waves):
        exact = [mpmath.sin(2 * mpmath.pi * (k1 * a + k2 * b) / size) / norm for a, b in nodes]
        assert np.max(np.abs(field.reshape(-1) - np.array(exact, dtype=float))) <= 4e-16


def test_synthetic_unstable_operator():
    grid = GridDescriptor(sizes=(8, 8), periods=(2 * np.pi, 2 * np.pi))
    symbol = np.linspace(1.0, 5.0, 64).reshape(grid.sizes)
    symbol[1, 2] = -1.0
    op = SymbolOperator(grid, symbol, band_mask(grid))
    min_eigenvalue = float(np.min(eigensolve(op).eigenvalues))
    assert not min_eigenvalue >= -1e-6
    assert min_eigenvalue == pytest.approx(-1.0)


def test_no_eigenpairs_requested():
    """No modes give an empty stack on the grid's shape, and `eigensolve`
    asked for none returns no eigenvalues and no fields."""
    grid = GridDescriptor(sizes=(8, 8), periods=(2 * np.pi, 2 * np.pi))
    assert _unit_modes(grid, []).shape == (0, 8, 8)
    spec = eigensolve(SymbolOperator(grid, np.ones(grid.sizes), band_mask(grid)), 0)
    assert spec.eigenvalues.shape == (0,)
    assert spec.eigenfields == []


def test_eigensolve_rejects_asymmetric():
    grid = GridDescriptor(sizes=(8, 8), periods=(2 * np.pi, 2 * np.pi))
    mat = np.eye(64)
    mat[0, 1] = 0.5
    op = GridOperator(grid, mat, grid.node_weight())
    with pytest.raises(OperatorSymmetryError):
        dense_eigensolve(op)
    with pytest.raises(OperatorSymmetryError):
        op.symmetrized(tol=1e-8)


def test_kernel_gap_guard():
    eigenvalues = np.concatenate([[0.0, 5e-5], np.linspace(1.0, 5.0, 62)])
    with pytest.raises(SpectralGapError):
        kernel_dimension(eigenvalues)
