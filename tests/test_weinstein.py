"""Action-angle graphs: chart gates, exact discrete gradient, scaling behaviour."""

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from oracles import graph_immersion, translate

from hslag.ambient import (
    ChartMetric,
    EuclideanMetric,
    UnitaryFrame,
    default_perturbed_metric,
    unitary_embedding,
    unitary_frame,
)
from hslag.errors import ChartDomainError
from hslag.geomcore import ScalarField, _deriv_array, l2_inner, volume
from hslag.models import TorusModel, clifford_torus
from hslag.weinstein import WeinsteinChart, _graph_jets, graph_volume_and_gradient


@pytest.fixture(scope="module")
def chart():
    return WeinsteinChart((1.0, 1.3))


@pytest.fixture(scope="module")
def grid(chart):
    return chart.grid(32)


def volume_of(chart, f, metric):
    """The value-only graph volume of a field."""
    vol, _ = graph_volume_and_gradient(chart, f.grid, f.values, metric, need_gradient=False)
    return float(vol.real)


@pytest.fixture(scope="module")
def perturbed():
    m = default_perturbed_metric(2, amplitude=0.05, seed=3)
    fr = unitary_frame(m, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    return m, fr


def band_limited_field(grid, rng, scale, modes=6, k_max=3):
    spec = np.zeros(grid.sizes, dtype=complex)
    for _ in range(modes):
        k = rng.integers(-k_max, k_max + 1, size=grid.dim)
        c = rng.normal() + 1j * rng.normal()
        spec[tuple(k)] += c
        spec[tuple(-k)] += np.conj(c)
    vals = np.fft.ifftn(spec).real * grid.num_nodes
    vals -= vals.mean()
    m = np.max(np.abs(vals))
    return vals * (scale / m) if m > 0 else vals


def test_chart_validation():
    with pytest.raises(ChartDomainError):
        WeinsteinChart((1.0, -0.5))
    with pytest.raises(ChartDomainError):
        WeinsteinChart((1.0, 1.3), delta=0.0)
    assert WeinsteinChart((1.0, 1.3)).delta == pytest.approx(0.2)


def test_zero_section_is_model_torus(chart, grid):
    gi = graph_immersion(chart, ScalarField(grid, np.zeros(grid.sizes)))
    model = clifford_torus(TorusModel((1.0, 1.3), grid_size=32))
    assert np.array_equal(gi.coords, model.coords)
    vol, P = graph_volume_and_gradient(chart, grid, np.zeros(grid.sizes))
    assert vol == pytest.approx((2 * np.pi) ** 2 * 1.3, rel=1e-14)
    assert np.max(np.abs(P)) < 1e-12


def test_graph_is_lagrangian_exactly(chart, grid):
    # epsilon cos(theta_1): the immersion constructor enforces the pullback
    # gate at 1e-8; verify the sharper 1e-10 statement directly.
    from hslag.geomcore import _symplectic_pullback

    theta1 = grid.meshgrid()[0]
    f = ScalarField(grid, 0.05 * np.cos(theta1))
    gi = graph_immersion(chart, f)
    pb = _symplectic_pullback(grid, gi.jacobian())
    assert np.max(np.abs(pb)) < 1e-10


def test_admissibility_gate(chart, grid, rng):
    f = band_limited_field(grid, rng, 0.5)
    with pytest.raises(ChartDomainError):
        graph_volume_and_gradient(chart, grid, f)


def test_gradient_matches_finite_differences(chart, grid, perturbed, rng):
    m, fr = perturbed
    f = band_limited_field(grid, rng, 0.05)
    for metric in (None, ChartMetric(m, fr, 0.05)):
        vol, P = graph_volume_and_gradient(chart, grid, f, metric)
        assert abs(np.mean(P)) < 1e-15  # exact zero mean by construction
        for _ in range(10):
            h = band_limited_field(grid, rng, 1.0)
            s = 1e-3

            def vol_at(step):
                v, _ = graph_volume_and_gradient(
                    chart, grid, f + step * h, metric, need_gradient=False
                )
                return v

            fd = (-vol_at(2 * s) + 8 * vol_at(s) - 8 * vol_at(-s) + vol_at(-2 * s)) / (12 * s)
            pred = l2_inner(
                ScalarField(grid, h), ScalarField(grid, P.real, check=False)
            ) * chart.flat_density()
            assert abs(fd - pred) / max(abs(fd), abs(pred), 1e-14) <= 1e-6


def test_volume_agrees_with_direct_quadrature(chart, grid, perturbed, rng):
    m, fr = perturbed
    cm = ChartMetric(m, fr, 0.05)
    f = ScalarField(grid, band_limited_field(grid, rng, 0.05))
    direct = volume(graph_immersion(chart, f), metric=cm)
    assert volume_of(chart, f, cm) == pytest.approx(direct, rel=1e-13)


def test_small_graph_hausdorff_distance(chart, grid):
    theta1 = grid.meshgrid()[0]
    model = clifford_torus(TorusModel((1.0, 1.3), grid_size=32))
    base = model.coords.reshape(-1, 4)
    dists = []
    for eps in (1e-2, 1e-3):
        gi = graph_immersion(chart, ScalarField(grid, eps * np.cos(theta1)))
        pts = gi.coords.reshape(-1, 4)
        d = max(directed_hausdorff(pts, base)[0], directed_hausdorff(base, pts)[0])
        dists.append(d)
        assert d < 10 * eps
    assert dists[1] < dists[0] / 5  # linear shrinkage


def test_scaled_residual_at_zero_decays_linearly(chart, grid, perturbed):
    m, fr = perturbed
    f0 = np.zeros(grid.sizes)
    norms = []
    for t in (0.08, 0.04, 0.02):
        _, P = graph_volume_and_gradient(chart, grid, f0, ChartMetric(m, fr, t))
        norms.append(np.max(np.abs(P)))
    for a, b in zip(norms, norms[1:]):
        assert 1.5 < a / b < 2.5  # O(t)


def test_scaled_functional_approaches_flat_volume(chart, grid, perturbed, rng):
    m, fr = perturbed
    f = ScalarField(grid, band_limited_field(grid, rng, 0.05))
    flat = volume_of(chart, f, None)
    gaps = [abs(volume_of(chart, f, ChartMetric(m, fr, t)) - flat) for t in (0.1, 0.05)]
    # the gap closes at least linearly in t (faster when the first-order term
    # cancels by the central symmetry of the model torus)
    assert gaps[0] / gaps[1] > 1.8
    assert gaps[0] < 1.0 * 0.1  # |F^t - Vol_flat| <= C t with modest C


def test_torus_action_equivariance(chart, grid, perturbed, rng):
    # rotating the frame by the diagonal torus equals translating the graph
    # potential: F_{p, u rho(gamma)}(f) = F_{p,u}(f o gamma^{-1})
    m, fr = perturbed
    f = ScalarField(grid, band_limited_field(grid, rng, 0.05))
    s = np.array([0.7, -1.2])
    R = unitary_embedding(np.diag(np.exp(1j * s)))
    lhs = volume_of(chart, f, ChartMetric(m, UnitaryFrame(fr.point, fr.matrix @ R), 0.05))
    rhs = volume_of(chart, translate(f, -s), ChartMetric(m, fr, 0.05))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_residual_field_wrapper(chart, grid, perturbed, rng):
    m, fr = perturbed
    f = ScalarField(grid, band_limited_field(grid, rng, 0.05))
    _, values = graph_volume_and_gradient(chart, grid, f.values, ChartMetric(m, fr, 0.05))
    P = ScalarField(grid, values.real, check=False)
    assert P.grid is grid
    assert abs(np.mean(P.values)) < 1e-15


def _einsum_volume_and_gradient(chart, grid, f, metric):
    """The graph volume gradient in per-node einsum form, as an independent
    oracle for the batched matrix products of graph_volume_and_gradient."""
    n = chart.n
    _, r2, coords, phi_theta, phi_y, phi_yy, Y, _ = _graph_jets(chart, grid, f)
    T = phi_theta + np.einsum("...jm,...ja->...am", phi_y, Y)
    G, dG = metric.derivative(coords)
    h = np.einsum("...am,...mn,...bn->...ab", T, G, T)
    q = np.sqrt(np.linalg.det(h))
    hinv = np.linalg.inv(h)
    GT = np.einsum("...mn,...bn->...bm", G, T)
    dTdy = np.einsum("...jm,...ja->...jam", phi_yy, Y).astype(q.dtype, copy=False)
    for j in range(n):
        dTdy[..., j, j, :] += phi_theta[..., j, :] / r2[..., j, None]
    A = q[..., None] * np.einsum("...ab,...jam,...bm->...j", hinv, dTdy, GT)
    Gdot = np.einsum("...mik,...jm->...jik", dG, phi_y)
    A = A + 0.5 * q[..., None] * np.einsum("...ab,...am,...jmn,...bn->...j", hinv, T, Gdot, T)
    B = q[..., None, None] * np.einsum(
        "...cb,...jm,...bm->...jc", hinv, np.einsum("...jm,...mn->...jn", phi_y, G), T
    )
    P = np.zeros_like(f, dtype=q.dtype)
    for j in range(n):
        P = P - _deriv_array(A[..., j], grid, axis=j)
        for c in range(n):
            P = P + _deriv_array(_deriv_array(B[..., j, c], grid, axis=j), grid, axis=c)
    return np.sum(q) * grid.node_weight(), P / chart.flat_density()


@pytest.mark.parametrize("step", [0.0, 1e-100], ids=["real", "complex_step"])
def test_volume_gradient_matches_einsum_oracle(chart, perturbed, rng, step):
    m, fr = perturbed
    grid = chart.grid(16)
    f = band_limited_field(grid, rng, 0.05)
    if step:
        f = f + 1j * step * band_limited_field(grid, rng, 1.0)
    for metric in (EuclideanMetric(2), ChartMetric(m, fr, 0.05)):
        vol, P = graph_volume_and_gradient(chart, grid, f, metric)
        ref_vol, ref_P = _einsum_volume_and_gradient(chart, grid, f, metric)
        assert abs(vol - ref_vol) <= 1e-14 * abs(ref_vol)
        for part in (np.real, np.imag) if step else (np.real,):
            scale = np.max(np.abs(part(ref_P)))
            assert scale > 0
            assert np.max(np.abs(part(P) - part(ref_P))) <= 1e-12 * scale
