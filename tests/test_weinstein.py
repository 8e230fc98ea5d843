"""Action-angle graphs: chart gates, exact discrete gradient, scaling behaviour."""

import numpy as np
import pytest
from scipy.spatial.distance import directed_hausdorff

from oracles import (
    band_limited_field,
    chart_map_jets,
    flat_chart,
    graph_immersion,
    pullback_graph_volume,
    translate,
    volume_gradient,
)

from hslag.ambient import (
    ChartMetric,
    SymplecticExpMetric,
    UnitaryFrame,
    default_perturbed_metric,
    unitary_embedding,
    unitary_frame,
)
from hslag.errors import ChartDomainError
from hslag.geomcore import ScalarField, hs_residual, l2_inner, spectral_gradient
from hslag.models import TorusModel, clifford_torus
from hslag.weinstein import (
    WeinsteinChart,
    _graph_jets,
    _small_inverse,
    graph_volume_and_gradient,
)


@pytest.fixture(scope="module")
def chart():
    return WeinsteinChart((1.0, 1.3))


@pytest.fixture(scope="module")
def grid(chart):
    return TorusModel(chart.radii, grid_size=32).grid()


def volume_of(chart, f, metric):
    """The value-only graph volume of a field."""
    vol, _, _ = graph_volume_and_gradient(chart, f.grid, f.values, metric, need_gradient=False)
    return float(vol.real)


@pytest.fixture(scope="module")
def perturbed():
    m = default_perturbed_metric(2, amplitude=0.05, seed=3)
    fr = unitary_frame(m, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    return m, fr


def test_chart_validation():
    with pytest.raises(ChartDomainError):
        WeinsteinChart((1.0, -0.5))
    assert WeinsteinChart((1.0, 1.3)).delta == pytest.approx(0.2)


def test_zero_section_is_model_torus(chart, grid):
    gi = graph_immersion(chart, ScalarField(grid, np.zeros(grid.sizes)))
    model = clifford_torus(TorusModel((1.0, 1.3), grid_size=32))
    assert np.array_equal(gi.coords, model.coords)
    vol, P, _ = volume_gradient(chart, grid, np.zeros(grid.sizes), flat_chart(chart.n))
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
        graph_volume_and_gradient(chart, grid, f, flat_chart(chart.n))


def test_gradient_matches_finite_differences(chart, grid, perturbed, rng):
    m, fr = perturbed
    f = band_limited_field(grid, rng, 0.05)
    for metric in (flat_chart(chart.n), ChartMetric(m, fr, 0.05)):
        vol, P, _ = volume_gradient(chart, grid, f, metric)
        assert abs(np.mean(P)) < 1e-15  # exact zero mean by construction
        for _ in range(10):
            h = band_limited_field(grid, rng, 1.0)
            s = 1e-3

            def vol_at(step):
                v, _, _ = graph_volume_and_gradient(
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
    direct = hs_residual(graph_immersion(chart, f), cm).volume
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
        _, P, _ = volume_gradient(chart, grid, f0, ChartMetric(m, fr, t))
        norms.append(np.max(np.abs(P)))
    for a, b in zip(norms, norms[1:]):
        assert 1.5 < a / b < 2.5  # O(t)


def test_scaled_functional_approaches_flat_volume(chart, grid, perturbed, rng):
    m, fr = perturbed
    f = ScalarField(grid, band_limited_field(grid, rng, 0.05))
    flat = volume_of(chart, f, flat_chart(chart.n))
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
    _, values, _ = volume_gradient(chart, grid, f.values, ChartMetric(m, fr, 0.05))
    P = ScalarField(grid, values.real, check=False)
    assert P.grid is grid
    assert abs(np.mean(P.values)) < 1e-15


@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex_step"])
@pytest.mark.parametrize("radii, size", [((1.0, 1.3), 24), ((1.0, 1.3, 1.6), 12)], ids=["n2", "n3"])
def test_graph_jets_match_dense_chart_map(radii, size, step):
    """The per-node chart scalars and the elementwise tangents against the
    chart map's dense Jacobians, T = d Phi/d theta + Y^T d Phi/d y."""
    chart = WeinsteinChart(radii)
    grid = TorusModel(chart.radii, grid_size=size).grid()
    rng = np.random.default_rng(4)
    f = band_limited_field(grid, rng, 0.05)
    if step:
        f = f + 1j * step * band_limited_field(grid, rng, 1.0)
    r2, r, cos_r, sin_r, coords, Y, T = _graph_jets(chart, grid, f)
    ref_r2, ref_coords, phi_theta, phi_y, _, ref_Y = chart_map_jets(chart, grid, f)
    ref_T = phi_theta + np.swapaxes(ref_Y, -1, -2) @ phi_y
    assert np.array_equal(r, np.sqrt(r2))
    # row j of d Phi/d y holds (cos, sin)/r_j in slots (2j, 2j+1) and zeros
    ref_cos_r, ref_sin_r = phi_y[..., 0::2].sum(axis=-2), phi_y[..., 1::2].sum(axis=-2)
    pairs = (
        (r2, ref_r2), (cos_r, ref_cos_r), (sin_r, ref_sin_r), (coords, ref_coords), (Y, ref_Y), (T, ref_T)
    )
    for part in (np.real, np.imag) if step else (np.real,):
        for got, want in pairs:
            scale = np.max(np.abs(part(want)))
            assert np.max(np.abs(part(got - want))) <= 1e-14 * scale


def _einsum_volume_and_gradient(chart, grid, f, metric):
    """The graph volume gradient in per-node einsum form, as an independent
    oracle for the batched matrix products of graph_volume_and_gradient."""
    n = chart.n
    r2, coords, phi_theta, phi_y, phi_yy, Y = chart_map_jets(chart, grid, f)
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
        P = P - spectral_gradient(A[..., j], grid)[j]
        for c in range(n):
            P = P + spectral_gradient(spectral_gradient(B[..., j, c], grid)[j], grid)[c]
    return np.sum(q) * grid.node_weight(), P / chart.flat_density()


@pytest.mark.parametrize("step", [0.0, 1e-100], ids=["real", "complex_step"])
def test_volume_gradient_matches_einsum_oracle(chart, perturbed, rng, step):
    m, fr = perturbed
    grid = TorusModel(chart.radii, grid_size=16).grid()
    f = band_limited_field(grid, rng, 0.05)
    if step:
        f = f + 1j * step * band_limited_field(grid, rng, 1.0)
    for metric in (flat_chart(chart.n), ChartMetric(m, fr, 0.05)):
        vol, P, _ = volume_gradient(chart, grid, f, metric)
        ref_vol, ref_P = _einsum_volume_and_gradient(chart, grid, f, metric)
        assert abs(vol - ref_vol) <= 1e-14 * abs(ref_vol)
        for part in (np.real, np.imag) if step else (np.real,):
            scale = np.max(np.abs(part(ref_P)))
            assert scale > 0
            assert np.max(np.abs(part(P) - part(ref_P))) <= 1e-12 * scale


def test_affine_sensitivity_matches_complex_step(chart, perturbed, rng):
    m, fr = perturbed
    grid = TorusModel(chart.radii, grid_size=16).grid()
    f = band_limited_field(grid, rng, 0.05)
    t = 0.05
    _, _, (d_shift, d_linear) = volume_gradient(chart, grid, f, ChartMetric(m, fr, t))
    d, step = 4, 1e-20

    def moved(index, linear):
        # z -> (I + A)^T g((I + A) z + b) (I + A) is the chart metric of the
        # frame (p + t u b, u (I + A))
        A, b = np.zeros((d, d), dtype=complex), np.zeros(d, dtype=complex)
        (A if linear else b)[index] = 1j * step
        frame = UnitaryFrame(fr.point + t * (fr.matrix @ b), fr.matrix @ (np.eye(d) + A))
        vol, _, _ = graph_volume_and_gradient(
            chart, grid, f, ChartMetric(m, frame, t), need_gradient=False
        )
        return vol.imag / step

    ref_shift = np.array([moved(k, False) for k in range(d)])
    ref_linear = np.array([[moved((k, l), True) for l in range(d)] for k in range(d)])
    for exact, ref in ((d_shift, ref_shift), (d_linear, ref_linear)):
        assert exact.shape == ref.shape
        assert np.max(np.abs(exact - ref)) <= 1e-12 * np.max(np.abs(ref))


# The ambient-frame volume against the chart-coordinate pullback: largest
# relative differences of P, per n (measured 2.7e-12 and 5.9e-13 over four
# random fields), of the volume and of the affine sensitivities taken as one
# covector.
_PULLBACK_P_BOUND = {2: 4e-11, 3: 1.8e-12}
_PULLBACK_VOLUME_BOUND = 1e-15
_PULLBACK_SENSITIVITY_BOUND = 1.6e-13


@pytest.mark.parametrize("metric_kind", ["chart", "euclidean"])
@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex_step"])
@pytest.mark.parametrize("radii, size", [((1.0, 1.3), 24), ((1.0, 1.3, 1.6), 12)], ids=["n2", "n3"])
def test_volume_matches_pullback_oracle(radii, size, step, metric_kind):
    chart = WeinsteinChart(radii)
    grid, n = TorusModel(chart.radii, grid_size=size).grid(), chart.n
    rng = np.random.default_rng(11)
    base = default_perturbed_metric(n, amplitude=0.05, seed=3)
    frame = unitary_frame(base, np.linspace(0.3, 4.0, 2 * n), seed=5)
    metric = {
        "chart": ChartMetric(base, frame, 0.02),
        "euclidean": flat_chart(n),
    }[metric_kind]
    # off the solution, where P is O(1e-3) and not a roundoff residue
    f = band_limited_field(grid, rng, 1e-4)
    if step:
        f = f + 1j * step * band_limited_field(grid, rng, 1.0)
    vol, P, (d_shift, d_linear) = volume_gradient(chart, grid, f, metric)
    ref_vol, ref_P, (ref_shift, ref_linear) = pullback_graph_volume(chart, grid, f, metric)
    assert np.max(np.abs(ref_P.real)) > 1e-3
    covector = np.concatenate([d_shift, d_linear.reshape(-1)])
    ref_covector = np.concatenate([ref_shift, ref_linear.reshape(-1)])
    # a complex step s along an O(1) field moves each node sum by about s
    # times its real size; the P field is compared with its own part
    for part, scale in ((np.real, 1.0), (np.imag, step)) if step else ((np.real, 1.0),):
        assert abs(part(vol - ref_vol)) <= _PULLBACK_VOLUME_BOUND * scale * abs(ref_vol.real)
        assert np.max(np.abs(part(P - ref_P))) <= _PULLBACK_P_BOUND[n] * np.max(np.abs(part(ref_P)))
        assert np.max(np.abs(part(covector - ref_covector))) <= (
            _PULLBACK_SENSITIVITY_BOUND * scale * np.max(np.abs(ref_covector.real))
        )


@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex_step"])
@pytest.mark.parametrize(
    "n, stack",
    [(1, (50,)), (2, (50,)), (3, (50,)), (2, (24, 24)), (3, (24, 24))],
    ids=["1", "2", "3", "2-grid24", "3-grid24"],
)
def test_small_inverse_matches_lapack(n, stack, step):
    # a flat stack, and a grid-shaped one as the volume passes it
    rng = np.random.default_rng(n)
    X = rng.normal(size=stack + (n, n))
    h = X @ np.swapaxes(X, -1, -2) + n * np.eye(n)
    if step:
        S = rng.normal(size=stack + (n, n))
        h = h + 1j * step * (S + np.swapaxes(S, -1, -2))
    inv, det = _small_inverse(h)
    ref_inv, ref_det = np.linalg.inv(h), np.linalg.det(h)
    assert inv.shape == h.shape and det.shape == h.shape[:-2]
    for part in (np.real, np.imag) if step else (np.real,):
        assert np.max(np.abs(part(inv - ref_inv))) <= 1e-14 * np.max(np.abs(part(ref_inv)))
        assert np.max(np.abs(part(det - ref_det) / part(ref_det))) <= 1e-13


def test_chart_volume_uses_no_pullback_and_no_lapack(chart, grid, perturbed, rng, monkeypatch):
    # the design: a chart volume, value-only or not, makes one metric call,
    # the base metric's linearize as it comes, never forms its jet, and
    # inverts the induced metric on node vectors
    m, fr = perturbed
    metric = ChartMetric(m, fr, 0.05)
    f = band_limited_field(grid, rng, 0.05)
    calls = []

    def spy(owner, name):
        original = getattr(owner, name)

        def recorded(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, recorded)

    for owner, name in ((ChartMetric, "derivative"), (ChartMetric, "value")):
        spy(owner, name)
    for name in ("derivative", "value", "linearize"):
        spy(SymplecticExpMetric, name)
    for owner, name in ((np.linalg, "inv"), (np.linalg, "det")):
        spy(owner, name)
    graph_volume_and_gradient(chart, grid, f, metric)
    graph_volume_and_gradient(chart, grid, f, metric, need_gradient=False)
    assert calls == ["linearize", "linearize"]


def test_longdouble_volume_at_a_solved_state(reduction_ctx, base_reduction_state):
    """The graph volume at a solved grid-32 state, from the field cast to
    longdouble, is a longdouble within 1e-14 relative of the float64 volume
    (8e-18 measured), not the inf that float64 views of the metric's
    longdouble buffers gave."""
    assert np.finfo(np.longdouble).eps < 1e-18  # else the check is vacuous
    ctx, state = reduction_ctx, base_reduction_state
    metric = ChartMetric(ctx.metric, state.unitary, state.t)
    volumes = [
        graph_volume_and_gradient(ctx.chart, ctx.grid, values, metric, need_gradient=False)[0]
        for values in (state.f.values, state.f.values.astype(np.longdouble))
    ]
    assert np.asarray(volumes[1]).dtype == np.longdouble
    assert abs(volumes[1] - volumes[0]) <= 1e-14 * abs(volumes[0])
