"""Ambient metric family, the evaluator contract, frames, and chart scaling."""

import copy
import math

import numpy as np
import pytest
import scipy.linalg

from oracles import compatibility_defect, frame_defects

from hslag.ambient import (
    ChartMetric,
    EuclideanMetric,
    SymplecticExpMetric,
    UnitaryFrame,
    ball_samples,
    default_perturbed_metric,
    estimate_sweep,
    frame_fit,
    symmetric_anticommuting_basis,
    unitary_algebra_basis,
    unitary_embedding,
    unitary_frame,
)
from hslag.errors import ConfigError
from hslag.geomcore import standard_symplectic_matrix


@pytest.fixture(scope="module")
def metric():
    return default_perturbed_metric(2, amplitude=0.05, seed=3)


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(0)
    return rng.uniform(0.0, 2 * np.pi, size=(40, 4))


def test_flat_metric_trivial():
    g0 = EuclideanMetric(2)
    pts = np.zeros((3, 4))
    assert np.array_equal(g0.value(pts), np.broadcast_to(np.eye(4), (3, 4, 4)))
    _, D, S = g0.derivative(pts, 2)
    assert D.shape == (3, 4, 4, 4) and not D.any()
    assert S.shape == (3, 4, 4, 4, 4) and not S.any()
    # complex points keep complex dtype (complex-step safety)
    assert g0.value(pts + 0j).dtype == complex


def test_anticommuting_basis_dimension_and_membership():
    for n in (1, 2, 3):
        basis = symmetric_anticommuting_basis(n)
        assert len(basis) == n * (n + 1)
        om = standard_symplectic_matrix(n)
        for X in basis:
            assert np.max(np.abs(X - X.T)) < 1e-12
            assert np.max(np.abs(X @ om + om @ X)) < 1e-12


def test_exp_metric_exact_compatibility(metric, points):
    G = metric.value(points)
    assert compatibility_defect(G) < 1e-12
    assert np.max(np.abs(G - np.swapaxes(G, -1, -2))) < 1e-12
    assert np.linalg.eigvalsh(G).min() > 0.5


def test_exp_metric_derivative_matches_scipy_frechet(metric):
    p = np.array([0.3, 1.1, 4.0, 2.5])
    Y, dY = metric._generator_jet(p, 1)
    mine = metric.derivative(p)[1]
    for mu in range(4):
        ref = scipy.linalg.expm_frechet(Y, dY[mu], compute_expm=False)
        assert np.max(np.abs(ref - mine[mu])) < 1e-13


def test_exp_metric_complex_step_consistency(metric, points):
    h = 1e-100
    _, D, S = metric.derivative(points, 2)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = 1.0
        G_cs, D_cs = metric.derivative(points + 1j * h * e)
        assert np.max(np.abs(G_cs.imag / h - D[:, mu])) < 1e-12
        assert np.max(np.abs(D_cs.imag / h - S[:, mu])) < 1e-12


def test_exp_metric_second_derivative_symmetric_and_fd(metric):
    p = np.array([0.3, 1.1, 4.0, 2.5])
    G, _, S = metric.derivative(p, 2)
    assert np.max(np.abs(S - np.swapaxes(S, 0, 1))) < 1e-14
    h = 1e-5
    e = np.zeros(4)
    e[1] = h
    fd = (metric.value(p + e) - 2 * G + metric.value(p - e)) / h**2
    assert np.max(np.abs(fd - S[1, 1])) < 1e-4


def test_symplectic_factor(metric, points):
    """S = expm(Y/2), the same metric at half the amplitude, is symmetric and
    symplectic with S^T S = G."""
    om = standard_symplectic_matrix(2)
    half = SymplecticExpMetric(
        metric.n, metric.wave_vectors, metric.cos_coeffs, metric.sin_coeffs, metric.amplitude / 2
    )
    S = half.value(points)
    assert np.max(np.abs(S - np.swapaxes(S, -1, -2))) < 1e-13
    assert np.max(np.abs(np.swapaxes(S, -1, -2) @ om @ S - om)) < 1e-13
    assert np.max(np.abs(S @ S - metric.value(points))) < 1e-13


def test_exp_metric_validation():
    basis = symmetric_anticommuting_basis(1)
    with pytest.raises(ConfigError):
        SymplecticExpMetric(1, np.array([[0.5, 0.0]]), np.array([basis[0]]), np.array([basis[0]]))
    bad = np.eye(2)  # symmetric but commutes with Omega0
    with pytest.raises(ConfigError):
        SymplecticExpMetric(1, np.array([[1.0, 0.0]]), np.array([bad]), np.array([bad]))


def _contract_evaluators():
    metric = default_perturbed_metric(2, amplitude=0.05, seed=3)
    frame = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    return {
        "euclidean": EuclideanMetric(2),
        "exp": metric,
        "chart": ChartMetric(metric, frame, t=0.1),
    }


@pytest.mark.parametrize("name", ["euclidean", "exp", "chart"])
@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex_step"])
def test_evaluator_jet_contract(name, step, points):
    """The order-1 jet is the head of the order-2 jet, and G is value's, bitwise."""
    ev = _contract_evaluators()[name]
    rng = np.random.default_rng(2)
    p = points + 1j * step * rng.normal(size=points.shape) if step else points
    G, D = ev.derivative(p, 1)
    jet2 = ev.derivative(p, 2)
    G_value = ev.value(p)
    assert len(jet2) == 3 and jet2[2].shape == p.shape[:-1] + (4,) * 4
    for a, b in ((jet2[0], G), (jet2[1], D), (G, G_value)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert ev.derivative(p)[1].tobytes() == D.tobytes()


def test_unitary_frame_properties(metric):
    rng = np.random.default_rng(7)
    for k in range(50):
        p = rng.uniform(0, 2 * np.pi, size=4)
        fr = unitary_frame(metric, p, seed=k)
        dm, ds = frame_defects(metric, fr)
        assert dm < 1e-12 and ds < 1e-12


def test_frame_fit_corrects_and_is_stable(metric):
    p = np.array([0.3, 1.1, 4.0, 2.5])
    fr = unitary_frame(metric, p, seed=5)
    rng = np.random.default_rng(1)
    noisy = fr.matrix + 1e-3 * rng.normal(size=(4, 4))
    fixed = frame_fit(metric, p, noisy)
    dm, ds = frame_defects(metric, fixed)
    assert dm < 1e-12 and ds < 1e-12
    assert np.max(np.abs(fixed.matrix - fr.matrix)) < 5e-3
    again = frame_fit(metric, p, fr.matrix)
    assert np.max(np.abs(again.matrix - fr.matrix)) < 1e-13


def test_unitary_embedding_properties(rng):
    om = standard_symplectic_matrix(2)
    basis = unitary_algebra_basis(2)
    assert len(basis) == 4
    for b in basis:
        assert np.max(np.abs(b + b.conj().T)) < 1e-15
    # first n entries are the diagonal torus directions
    assert basis[0][0, 0] == 1j and basis[1][1, 1] == 1j
    xi1 = sum(c * b for c, b in zip(rng.normal(size=4), basis))
    xi2 = sum(c * b for c, b in zip(rng.normal(size=4), basis))
    g1, g2 = scipy.linalg.expm(xi1), scipy.linalg.expm(xi2)
    R1 = unitary_embedding(g1)
    assert np.max(np.abs(R1.T @ om @ R1 - om)) < 1e-12
    assert np.max(np.abs(R1.T @ R1 - np.eye(4))) < 1e-12
    assert np.max(np.abs(unitary_embedding(g1 @ g2) - R1 @ unitary_embedding(g2))) < 1e-12
    v = rng.normal(size=4)
    w = R1 @ v
    assert np.max(np.abs((w[0::2] + 1j * w[1::2]) - g1 @ (v[0::2] + 1j * v[1::2]))) < 1e-12


def test_chart_metric_flat_is_identity():
    g0 = EuclideanMetric(2)
    fr = unitary_frame(g0, np.array([0.3, 1.1, 4.0, 2.5]), seed=0)
    cm = ChartMetric(g0, fr, t=0.07)
    z = ball_samples(4, 1.0, 11, seed=2)
    G, D, S = cm.derivative(z, 2)
    assert np.max(np.abs(G - np.eye(4))) < 1e-13
    assert np.max(np.abs(D)) < 1e-13
    assert not S.any()


def test_chart_metric_identity_at_origin(metric):
    fr = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    cm = ChartMetric(metric, fr, t=0.1)
    assert np.max(np.abs(cm.value(np.zeros(4)) - np.eye(4))) < 1e-12


def test_chart_metric_complex_step(metric):
    fr = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    cm = ChartMetric(metric, fr, t=0.05)
    z = ball_samples(4, 0.8, 7, seed=3)
    h = 1e-100
    _, D, S = cm.derivative(z, 2)
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = 1.0
        G_cs, D_cs = cm.derivative(z + 1j * h * e)
        assert np.max(np.abs(G_cs.imag / h - D[:, mu])) < 1e-14
        assert np.max(np.abs(D_cs.imag / h - S[:, mu])) < 1e-14


def test_chart_metric_frame_equivariance(metric, rng):
    p = np.array([0.3, 1.1, 4.0, 2.5])
    fr = unitary_frame(metric, p, seed=5)
    xi = sum(c * b for c, b in zip(rng.normal(size=4), unitary_algebra_basis(2)))
    R = unitary_embedding(scipy.linalg.expm(xi))
    cm = ChartMetric(metric, fr, t=0.05)
    cmR = ChartMetric(metric, UnitaryFrame(p, fr.matrix @ R), t=0.05)
    z = ball_samples(4, 0.8, 9, seed=4)
    zR = np.einsum("nm,...m->...n", R, z)
    rhs = np.einsum("ma,...mn,nb->...ab", R, cm.value(zR), R)
    assert np.max(np.abs(cmR.value(z) - rhs)) < 1e-10


def test_estimate_sweep_flat():
    g0 = EuclideanMetric(2)
    frames = [unitary_frame(g0, np.zeros(4), seed=1)]
    rep = estimate_sweep(g0, frames, [0.1, 0.05])
    assert rep.bounded
    assert max(rep.constants[0]) < 1e-12


def test_estimate_sweep_perturbed_bounded(metric):
    rng = np.random.default_rng(11)
    frames = [
        unitary_frame(metric, q, seed=k)
        for k, q in enumerate(rng.uniform(0, 2 * np.pi, size=(3, 4)))
    ]
    rep = estimate_sweep(metric, frames, [0.1, 0.05, 0.025])
    assert rep.bounded
    for k in range(3):
        assert rep.ratios[k] <= 2.0
        assert max(rep.constants[k]) > 1e-4  # genuinely nonzero perturbation


# ---------------------------------------------------------------------------
# the series length: fixed per metric from a bound on |Y|
# ---------------------------------------------------------------------------


def _bound_length(metric):
    """r >= sup |Y|_2 and the fewest terms J whose order-2 tail bound
    r^(J-1)/(J-1)! / (1 - r/J) is below 2^-60, written out independently."""
    r = metric.amplitude * sum(
        np.sqrt(np.sum(A**2) + np.sum(B**2)) for A, B in zip(metric.cos_coeffs, metric.sin_coeffs)
    )
    J = 2
    while r >= J or r ** (J - 1) / math.factorial(J - 1) / (1 - r / J) >= 2.0**-60:
        J += 1
    return r, J


@pytest.mark.parametrize("amplitude", [0.05, 0.5])
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_series_length_is_the_bound_length(seed, amplitude):
    metric = default_perturbed_metric(2, amplitude=amplitude, seed=seed)
    r, J = _bound_length(metric)
    assert metric._terms == J
    if amplitude == 0.05:
        assert J == 14
    else:
        assert 25 <= J <= 28
    p = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=(200, 4))
    Y = metric._generator_jet(p, 0)[0]
    assert np.max(np.linalg.norm(Y, ord=2, axis=(-2, -1))) <= r


def test_series_length_is_shared_by_every_order_and_dtype():
    """Cut the series after 4 terms at amplitude 0.5, where the cut shows:
    value is then the degree-4 Taylor polynomial of expm(Y), and the real
    jet of each order is the complex-step derivative of the order below,
    taken at complex points, so every path sums the same terms."""
    metric = copy.copy(default_perturbed_metric(2, amplitude=0.5, seed=1))
    metric._terms = 4
    p = np.random.default_rng(4).uniform(0.0, 2 * np.pi, size=(30, 4))
    Y = metric._generator_jet(p, 0)[0]
    power = np.broadcast_to(np.eye(4), Y.shape)
    taylor = power.copy()
    for j in range(1, 5):
        power = power @ Y / j
        taylor += power
    G, D, S = metric.derivative(p, 2)
    assert np.max(np.abs(G - taylor)) < 1e-14 * np.max(np.abs(G))
    longer = copy.copy(metric)
    longer._terms = 5
    assert np.max(np.abs(longer.value(p) - G)) > 1e-3
    h = 1e-100
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = 1.0
        G_cs, D_cs = metric.derivative(p + 1j * h * e, 1)
        assert np.max(np.abs(metric.value(p + 1j * h * e).imag / h - D[:, mu])) < 1e-13
        assert np.max(np.abs(G_cs.imag / h - D[:, mu])) < 1e-13
        assert np.max(np.abs(D_cs.imag / h - S[:, mu])) < 1e-13 * np.max(np.abs(S))


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("step", [0.0, 1e-100], ids=["real", "complex_step"])
def test_series_equals_thirty_term_reference_bitwise(seed, step):
    metric = default_perturbed_metric(2, amplitude=0.05, seed=seed)
    reference = copy.copy(metric)
    reference._terms = 30
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 2 * np.pi, size=(200, 4))
    if step:
        p = p + 1j * step * rng.normal(size=p.shape)
    for mine, ref in zip(metric.derivative(p, 2), reference.derivative(p, 2)):
        assert mine.tobytes() == ref.tobytes()


def test_large_amplitude_series_matches_scipy_expm():
    metric = default_perturbed_metric(2, amplitude=0.5, seed=1)
    p = np.random.default_rng(6).uniform(0.0, 2 * np.pi, size=(20, 4))
    Y, dY = metric._generator_jet(p, 1)
    G, D = metric.derivative(p)
    for k in range(len(p)):
        ref = scipy.linalg.expm(Y[k])
        assert np.max(np.abs(G[k] - ref)) <= 1e-13 * np.max(np.abs(ref))
        for mu in range(4):
            ref = scipy.linalg.expm_frechet(Y[k], dY[k, mu], compute_expm=False)
            assert np.max(np.abs(D[k, mu] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _einsum_pullback(chart, z, order):
    """The chart jet in three-operand einsum form, as an independent oracle."""
    G, *dG = chart.base.derivative(chart.embed(z), order)
    u, t = chart.frame.matrix, chart.t
    jet = [np.einsum("ia,...ij,jb->...ab", u, G, u)]
    if order >= 1:
        D = np.einsum("ia,...nij,jb->...nab", u, dG[0], u)
        jet.append(t * np.einsum("nm,...nab->...mab", u, D))
    if order >= 2:
        S = np.einsum("ia,...mnij,jb->...mnab", u, dG[1], u)
        S = np.einsum("mc,...mnab->...cnab", u, S)
        jet.append(t**2 * np.einsum("nd,...cnab->...cdab", u, S))
    return jet


@pytest.mark.parametrize("order", [0, 1, 2])
def test_chart_pullbacks_match_einsum_oracle(metric, order):
    fr = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    cm = ChartMetric(metric, fr, t=0.05)
    z = ball_samples(4, 0.8, 50, seed=3)
    embedded = fr.point + 0.05 * np.einsum("nm,...m->...n", fr.matrix, z)
    assert np.max(np.abs(cm.embed(z) - embedded)) <= 1e-15 * np.max(np.abs(embedded))
    mine = cm.derivative(z, order) if order else (cm.value(z),)
    for a, b in zip(mine, _einsum_pullback(cm, z, order)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))
