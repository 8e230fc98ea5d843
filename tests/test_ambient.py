"""Ambient metric family, the evaluator contract, frames, and chart scaling."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    compatibility_defect,
    einsum_chart_jet,
    einsum_generator_jet,
    frame_defects,
    recurrence_jet,
)

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
from hslag.ambient import (
    _MAX_SERIES_BOUND,
    _SWEEP_RADIUS,
    _SWEEP_SAMPLES,
    _gram_schmidt_frame,
)
from hslag.errors import ConfigError, RankDeficiencyError
from hslag.geomcore import _COMPLEX_STEP, standard_symplectic_matrix


def complex_step_hessian(evaluator, points: np.ndarray) -> np.ndarray:
    """d2G[..., mu, nu, i, j] = d/dp_nu of the jet's dG[..., mu, i, j], as
    the complex step of derivative along each axis nu, stacked in one call."""
    points = np.asarray(points)
    d = points.shape[-1]
    axes = np.eye(d).reshape((d,) + (1,) * (points.ndim - 1) + (d,))
    dG = evaluator.derivative(points + 1j * _COMPLEX_STEP * axes)[1]
    return np.moveaxis(dG.imag / _COMPLEX_STEP, 0, -3)


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
    _, D = g0.derivative(pts)
    S = complex_step_hessian(g0, pts)
    assert D.shape == (3, 4, 4, 4) and not D.any()
    assert S.shape == (3, 4, 4, 4, 4) and not S.any()
    # complex points keep complex dtype (complex-step safety)
    assert g0.value(pts + 0j).dtype == complex
    G, pullback = g0.linearize(pts)
    assert np.array_equal(G, g0.value(pts))
    dGM = pullback(np.ones((3, 4, 4)))
    assert dGM.shape == (3, 4) and not dGM.any()


def test_anticommuting_basis_dimension_and_membership():
    for n in (1, 2, 3):
        basis = symmetric_anticommuting_basis(n)
        assert len(basis) == n * (n + 1)
        om = standard_symplectic_matrix(n)
        for X in basis:
            assert np.max(np.abs(X - X.T)) < 1e-12
            assert np.max(np.abs(X @ om + om @ X)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_basis_and_default_metric_match_a_scipy_null_space_bytewise(n, monkeypatch):
    """The basis from numpy's SVD is scipy.linalg.null_space's byte for
    byte, and so is every coefficient of the default metric built on it: a
    torus located in that metric and stored stays located."""
    import hslag.ambient

    def reference_basis(m):
        null = scipy.linalg.null_space(hslag.ambient._anticommuting_constraints(m))
        return [null[:, k].reshape(2 * m, 2 * m) for k in range(null.shape[1])]

    mine = symmetric_anticommuting_basis(n)
    assert [X.tobytes() for X in mine] == [X.tobytes() for X in reference_basis(n)]
    built = default_perturbed_metric(n)
    monkeypatch.setattr(hslag.ambient, "symmetric_anticommuting_basis", reference_basis)
    reference = default_perturbed_metric(n)
    assert built.cos_coeffs.tobytes() == reference.cos_coeffs.tobytes()
    assert built.sin_coeffs.tobytes() == reference.sin_coeffs.tobytes()


def test_copied_metric_keeps_its_own_workspaces():
    """A copy evaluates in buffers of its own, so after the twin linearizes
    as many points the original's pullback still returns its original
    value; the original's own next evaluation makes it raise."""
    metric = default_perturbed_metric(2)
    rng = np.random.default_rng(0)
    p, q = rng.uniform(0.0, 2 * np.pi, size=(2, 576, 4))
    M = rng.normal(size=(576, 4, 4))
    _, pullback = metric.linearize(p)
    expected = pullback(M)
    twin = copy.copy(metric)
    twin_G, twin_pullback = twin.linearize(q)
    assert pullback(M).tobytes() == expected.tobytes()
    assert twin_G.tobytes() == metric.value(q).tobytes()
    with pytest.raises(RuntimeError, match="stale pullback"):
        pullback(M)
    assert twin_pullback(M).shape == (576, 4)


def test_exp_metric_exact_compatibility(metric, points):
    G = metric.value(points)
    assert compatibility_defect(G) < 1e-12
    assert np.max(np.abs(G - np.swapaxes(G, -1, -2))) < 1e-12
    assert np.linalg.eigvalsh(G).min() > 0.5


def test_exp_metric_derivative_matches_scipy_frechet(metric):
    p = np.array([0.3, 1.1, 4.0, 2.5])
    Y, dY = einsum_generator_jet(metric, p, 1)
    mine = metric.derivative(p)[1]
    for mu in range(4):
        ref = scipy.linalg.expm_frechet(Y, dY[mu], compute_expm=False)
        assert np.max(np.abs(ref - mine[mu])) < 1e-13


def test_exp_metric_complex_step_consistency(metric, points):
    """The complex step of value is the jet's dG, and the complex step of
    the jet is the recurrence oracle's analytic d2G."""
    h = 1e-100
    _, D = metric.derivative(points)
    S = recurrence_jet(metric, points, 2)[2]
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = 1.0
        G_cs, D_cs = metric.derivative(points + 1j * h * e)
        assert np.max(np.abs(G_cs.imag / h - D[:, mu])) < 1e-12
        assert np.max(np.abs(D_cs.imag / h - S[:, mu])) < 1e-12


def test_exp_metric_second_derivative_symmetric_and_fd(metric):
    """The complex-step d2G is symmetric and matches a second difference."""
    p = np.array([0.3, 1.1, 4.0, 2.5])
    G = metric.value(p)
    S = complex_step_hessian(metric, p)
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
    """derivative returns the pair (G, dG) in the points' dtype, its G is
    value's bitwise, and a second call repeats it bitwise."""
    ev = _contract_evaluators()[name]
    rng = np.random.default_rng(2)
    p = points + 1j * step * rng.normal(size=points.shape) if step else points
    jet, again = ev.derivative(p), ev.derivative(p)
    assert len(jet) == 2 and jet[1].shape == p.shape[:-1] + (4,) * 3
    assert jet[1].dtype == p.dtype
    for a, b in ((ev.value(p), jet[0]), (jet[0], again[0]), (jet[1], again[1])):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


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


def test_frame_fit_takes_a_stack_of_frames(metric):
    """A stack of (point, target) pairs fits as the pairs do one by one, and a
    stack whose seeds all vanish raises, as a single frame does."""
    rng = np.random.default_rng(2)
    points = rng.uniform(0.0, 2 * np.pi, size=(3, 4))
    targets = np.array([unitary_frame(metric, p, seed=k).matrix for k, p in enumerate(points)])
    targets += 1e-3 * rng.normal(size=targets.shape)
    fitted = frame_fit(metric, points, targets)
    assert fitted.matrix.shape == (3, 4, 4)
    for p, target, matrix in zip(points, targets, fitted.matrix):
        assert np.max(np.abs(frame_fit(metric, p, target).matrix - matrix)) <= 1e-15
        dm, ds = frame_defects(metric, UnitaryFrame(p, matrix))
        assert dm < 1e-12 and ds < 1e-12
    with pytest.raises(RankDeficiencyError):
        _gram_schmidt_frame(metric.value(points), [np.zeros(4)] * 4)


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
    G, D = cm.derivative(z)
    S = complex_step_hessian(cm, z)
    assert np.max(np.abs(G - np.eye(4))) < 1e-13
    assert np.max(np.abs(D)) < 1e-13
    assert not S.any()


def test_chart_metric_identity_at_origin(metric):
    fr = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    cm = ChartMetric(metric, fr, t=0.1)
    assert np.max(np.abs(cm.value(np.zeros(4)) - np.eye(4))) < 1e-12


def test_chart_metric_complex_step(metric):
    """The complex step of the chart's value is its dG, and the complex step
    of its jet is the recurrence oracle's d2G pulled back through the chart."""
    fr = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    cm = ChartMetric(metric, fr, t=0.05)
    z = ball_samples(4, 0.8, 7, seed=3)
    h = 1e-100
    _, D = cm.derivative(z)
    S = einsum_chart_jet(cm, recurrence_jet(metric, cm.embed(z), 2))[2]
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
    assert max(rep.ratios.values()) <= 2.0
    assert max(rep.constants[0]) < 1e-12


def test_estimate_sweep_perturbed_bounded(metric):
    rng = np.random.default_rng(11)
    frames = [
        unitary_frame(metric, q, seed=k)
        for k, q in enumerate(rng.uniform(0, 2 * np.pi, size=(3, 4)))
    ]
    rep = estimate_sweep(metric, frames, [0.1, 0.05, 0.025])
    assert max(rep.ratios.values()) <= 2.0
    for k in range(3):
        assert rep.ratios[k] <= 2.0
        assert max(rep.constants[k]) > 1e-4  # genuinely nonzero perturbation


@pytest.mark.parametrize("n", [2, 3])
def test_estimate_sweep_second_derivative_is_the_analytic_one(n):
    """C_2, the sup of the complex-step d2g^t over frames and ball samples,
    equals the sup of the recurrence oracle's analytic d2G pulled back
    through each chart, to 1e-13 relative at every t, and so does every
    entry of the chart's complex-step d2G, relative to the largest (both
    read at most 1.1e-15)."""
    metric = default_perturbed_metric(n, amplitude=0.05, seed=1)
    rng = np.random.default_rng(n)
    frames = [
        unitary_frame(metric, q, seed=k)
        for k, q in enumerate(rng.uniform(0, 2 * np.pi, size=(2, 2 * n)))
    ]
    t_values = [0.1, 0.025]
    report = estimate_sweep(metric, frames, t_values, seed=2)
    z = ball_samples(2 * n, _SWEEP_RADIUS, _SWEEP_SAMPLES, seed=2)
    for t, C2 in zip(t_values, report.constants[2]):
        sup = 0.0
        for fr in frames:
            chart = ChartMetric(metric, fr, t)
            S = einsum_chart_jet(chart, recurrence_jet(metric, chart.embed(z), 2))[2]
            sup = max(sup, float(np.max(np.abs(S))))
            assert np.max(np.abs(complex_step_hessian(chart, z) - S)) <= 1e-13 * sup
        assert abs(C2 - sup / t**2) <= 1e-13 * C2


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
    Y = einsum_generator_jet(metric, p, 0)[0]
    assert np.max(np.linalg.norm(Y, ord=2, axis=(-2, -1))) <= r


@pytest.mark.parametrize("seed", [0, 1])
def test_series_bound_is_capped(seed):
    """A metric whose bound r is not finite or past the cap raises at once
    (at r = inf the series length would never be found, and a NaN r would
    evaluate silently); just below the cap the series, about 50 terms, is
    still compatible to 1e-12."""
    unit_r = _bound_length(default_perturbed_metric(2, amplitude=1.0, seed=seed))[0]
    at_cap = _MAX_SERIES_BOUND / unit_r
    metric = default_perturbed_metric(2, amplitude=0.999 * at_cap, seed=seed)
    p = np.random.default_rng(seed).uniform(0.0, 2 * np.pi, size=(200, 4))
    assert compatibility_defect(metric.value(p)) <= 1e-12
    for amplitude in (math.inf, math.nan, 1.001 * at_cap):
        with pytest.raises(ConfigError, match="series bound"):
            default_perturbed_metric(2, amplitude=amplitude, seed=seed)


def test_series_length_is_shared_by_every_order_and_dtype():
    """Cut the series after 4 terms at amplitude 0.5, where the cut shows:
    value is then the degree-4 Taylor polynomial of expm(Y), the real jet's
    dG is the complex-step derivative of value and of the jet's G, and the
    complex step of the jet's dG is the recurrence oracle's d2G of the same
    cut series, so every path sums the same terms."""
    metric = copy.copy(default_perturbed_metric(2, amplitude=0.5, seed=1))
    metric._terms = 4
    p = np.random.default_rng(4).uniform(0.0, 2 * np.pi, size=(30, 4))
    Y = einsum_generator_jet(metric, p, 0)[0]
    power = np.broadcast_to(np.eye(4), Y.shape)
    taylor = power.copy()
    for j in range(1, 5):
        power = power @ Y / j
        taylor += power
    G, D = metric.derivative(p)
    S = recurrence_jet(metric, p, 2)[2]
    assert np.max(np.abs(G - taylor)) < 1e-14 * np.max(np.abs(G))
    longer = copy.copy(metric)
    longer._terms = 5
    assert np.max(np.abs(longer.value(p) - G)) > 1e-3
    h = 1e-100
    for mu in range(4):
        e = np.zeros(4)
        e[mu] = 1.0
        G_cs, D_cs = metric.derivative(p + 1j * h * e)
        assert np.max(np.abs(metric.value(p + 1j * h * e).imag / h - D[:, mu])) < 1e-13
        assert np.max(np.abs(G_cs.imag / h - D[:, mu])) < 1e-13
        assert np.max(np.abs(D_cs.imag / h - S[:, mu])) < 1e-13 * np.max(np.abs(S))


@pytest.mark.parametrize("seed", [0, 1, 3])
@pytest.mark.parametrize("step", [0.0, 1e-100], ids=["real", "complex_step"])
def test_series_equals_thirty_term_reference_bitwise(seed, step):
    """At the default amplitude the J = 14 jet equals the 30-term one bit
    for bit, and so does its complex step along each axis, the d2G of the
    scaling estimates."""
    metric = default_perturbed_metric(2, amplitude=0.05, seed=seed)
    reference = copy.copy(metric)
    reference._terms = 30
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 2 * np.pi, size=(200, 4))
    if step:
        p = p + 1j * step * rng.normal(size=p.shape)
    for mine, ref in zip(metric.derivative(p), reference.derivative(p)):
        assert mine.tobytes() == ref.tobytes()
    mine, ref = (complex_step_hessian(ev, p) for ev in (metric, reference))
    assert mine.tobytes() == ref.tobytes()


def test_large_amplitude_series_matches_scipy_expm():
    metric = default_perturbed_metric(2, amplitude=0.5, seed=1)
    p = np.random.default_rng(6).uniform(0.0, 2 * np.pi, size=(20, 4))
    Y, dY = einsum_generator_jet(metric, p, 1)
    G, D = metric.derivative(p)
    for k in range(len(p)):
        ref = scipy.linalg.expm(Y[k])
        assert np.max(np.abs(G[k] - ref)) <= 1e-13 * np.max(np.abs(ref))
        for mu in range(4):
            ref = scipy.linalg.expm_frechet(Y[k], dY[k, mu], compute_expm=False)
            assert np.max(np.abs(D[k, mu] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_chart_pullbacks_match_einsum_oracle(metric, order):
    """The chart's value and jet are the einsum pullback of the base's at
    the embedded points; at order 2, the chart's complex-step d2G is the
    einsum pullback of the base's jet at the same complex points."""
    fr = unitary_frame(metric, np.array([0.3, 1.1, 4.0, 2.5]), seed=5)
    cm = ChartMetric(metric, fr, t=0.05)
    z = ball_samples(4, 0.8, 50, seed=3)
    embedded = fr.point + 0.05 * np.einsum("nm,...m->...n", fr.matrix, z)
    assert np.max(np.abs(cm.embed(z) - embedded)) <= 1e-15 * np.max(np.abs(embedded))
    if order == 0:
        mine, reference = (cm.value(z),), einsum_chart_jet(cm, (metric.value(cm.embed(z)),))
    elif order == 1:
        mine, reference = cm.derivative(z), einsum_chart_jet(cm, metric.derivative(cm.embed(z)))
    else:
        steps = z + 1j * _COMPLEX_STEP * np.eye(4)[:, None, :]
        pulled = einsum_chart_jet(cm, metric.derivative(cm.embed(steps)))[1]
        mine = (complex_step_hessian(cm, z),)
        reference = (np.moveaxis(pulled.imag / _COMPLEX_STEP, 0, -3),)
    for a, b in zip(mine, reference):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b))


# ---------------------------------------------------------------------------
# the Paterson-Stockmeyer jet against the term-by-term recurrence
# ---------------------------------------------------------------------------


def _series_case(case):
    """(metric, J): the default amplitude, a large one, and a series shorter
    than one Paterson-Stockmeyer block."""
    if case == "amplitude_0.05":
        return default_perturbed_metric(2, amplitude=0.05, seed=1), 14
    metric = default_perturbed_metric(2, amplitude=0.5, seed=1)
    if case == "amplitude_0.5":
        return metric, metric._terms
    metric = copy.copy(metric)
    metric._terms = 4
    return metric, 4


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("step", [0.0, 1e-100], ids=["real", "complex_step"])
@pytest.mark.parametrize("case", ["amplitude_0.05", "amplitude_0.5", "shorter_than_a_block"])
def test_jet_matches_recurrence_oracle(case, step, order):
    """Every slot of the jet, and under complex step its imaginary part,
    agrees with the recurrence oracle to a few ulps of the slot's size, on
    more points than one workspace chunk holds.  At order 2 the slot is the
    jet's complex step along each axis, a real d2G, against the oracle's
    analytic d2G (its real part at complex points)."""
    metric, terms = _series_case(case)
    assert metric._terms == terms
    if case == "amplitude_0.5":
        assert 25 <= terms <= 28
    rng = np.random.default_rng(7)
    p = rng.uniform(0.0, 2 * np.pi, size=(300, 4))
    if step:
        p = p + 1j * step * rng.normal(size=p.shape)
    mine = metric.derivative(p) if order else (metric.value(p),)
    reference = recurrence_jet(metric, p, order)
    if order == 2:
        mine += (complex_step_hessian(metric, p),)
        reference = reference[:2] + (reference[2].real,)
    assert len(mine) == len(reference) == order + 1
    ulps = 8 * np.finfo(float).eps
    for a, b in zip(mine, reference):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.max(np.abs(a.real - b.real)) <= ulps * np.max(np.abs(b.real))
        if step:
            assert np.max(np.abs(a.imag - b.imag)) <= ulps * np.max(np.abs(b.imag))


@pytest.mark.parametrize("amplitude", [0.05, 0.5])
@pytest.mark.parametrize("step", [0.0, 1e-100], ids=["real", "complex_step"])
def test_generator_jet_matches_einsum_oracle(amplitude, step):
    """The GEMM generator jet against one einsum per slot, read through the
    series cut after one term, whose jet is (I + Y, dY) and whose complex
    step is d2Y (real, against the oracle's real part at complex points).
    The bound is a few ulps of the largest phase argument m.p (up to about
    50 here)."""
    metric = copy.copy(default_perturbed_metric(2, amplitude=amplitude, seed=3))
    metric._terms = 1
    rng = np.random.default_rng(8)
    p = rng.uniform(0.0, 2 * np.pi, size=(200, 4))
    tol = 4 * np.spacing(np.max(np.abs(p @ metric.wave_vectors.T)))
    if step:
        p = p + 1j * step * rng.normal(size=p.shape)
    G, dG = metric.derivative(p)
    Y, dY, d2Y = einsum_generator_jet(metric, p, 2)
    pairs = ((G - np.eye(4), Y), (dG, dY), (complex_step_hessian(metric, p), d2Y.real))
    for a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.max(np.abs(a.real - b.real)) <= tol * np.max(np.abs(b.real))
        if step:
            assert np.max(np.abs(a.imag - b.imag)) <= tol * np.max(np.abs(b.imag))


def test_warm_jet_allocates_only_its_outputs():
    """After one call has built the workspace, an order-1 jet on 576 points
    allocates its two outputs and at most 4 KiB more (views, tuples, the
    workspace lookup), and the outputs do not alias the workspace: a later
    call leaves them unchanged."""
    margin = 4096
    metric = default_perturbed_metric(2, amplitude=0.05, seed=1)
    rng = np.random.default_rng(3)
    p, q = rng.uniform(0.0, 2 * np.pi, size=(2, 24, 24, 4))
    metric.derivative(q)
    tracemalloc.start()
    try:
        G, dG = metric.derivative(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.nbytes + dG.nbytes == 576 * (16 + 64) * 8
    assert peak <= G.nbytes + dG.nbytes + margin
    kept = G.copy(), dG.copy()
    metric.derivative(q)
    assert G.tobytes() == kept[0].tobytes() and dG.tobytes() == kept[1].tobytes()


# ---------------------------------------------------------------------------
# linearize: dG : M by one reverse sweep, against the forward jet
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("step", [0.0, 1e-20], ids=["real", "complex_step"])
@pytest.mark.parametrize(
    "case", ["amplitude_0.05", "amplitude_0.5", "shorter_than_a_block", "n_3"]
)
def test_pullback_is_the_jet_contraction(case, step):
    """pullback(M) is derivative's dG contracted with M, for random
    symmetric M, to 1e-14 relative in each part, on a stack of points
    larger than one chunk; linearize's G is value's bit for bit."""
    if case == "n_3":
        metric = default_perturbed_metric(3, amplitude=0.05, seed=2)
    else:
        metric = _series_case(case)[0]
    d = metric.dim
    rng = np.random.default_rng(11)
    p = rng.uniform(0.0, 2 * np.pi, size=(2, 150, d))
    M = rng.normal(size=p.shape[:-1] + (d, d))
    if step:
        p = p + 1j * step * rng.normal(size=p.shape)
        M = M + 1j * step * rng.normal(size=M.shape)
    M = M + np.swapaxes(M, -1, -2)
    G, pullback = metric.linearize(p)
    dGM = pullback(M)
    reference = np.einsum("...mij,...ij->...m", metric.derivative(p)[1], M)
    assert dGM.dtype == reference.dtype and dGM.shape == p.shape
    for part in (np.real, np.imag) if step else (np.real,):
        assert np.max(np.abs(part(dGM - reference))) <= 1e-14 * np.max(np.abs(part(reference)))
    assert G.tobytes() == metric.value(p).tobytes()


def test_stale_pullback_raises(metric, points):
    """A pullback reads its linearize's buffers: it may be called again
    until the metric's next evaluation, and raises after that."""
    M = np.broadcast_to(np.eye(4), points.shape[:-1] + (4, 4))
    _, pullback = metric.linearize(points)
    first = pullback(M)
    assert pullback(M).tobytes() == first.tobytes()
    metric.value(points[:3])
    with pytest.raises(RuntimeError, match="stale"):
        pullback(M)
    _, pullback = metric.linearize(points)
    _, later = metric.linearize(points[:5])
    with pytest.raises(RuntimeError, match="stale"):
        pullback(M)
    assert later(M[:5]).tobytes() == first[:5].tobytes()


def test_warm_linearize_allocates_only_its_outputs():
    """After one call has built the workspace, a linearize on 576 points and
    its pullback allocate G, dG : M and at most 4 KiB more: the sweep's
    buffers are the metric's, sized for the point set and reused.  The
    outputs do not alias the workspace: a later call leaves them unchanged."""
    margin = 4096
    metric = default_perturbed_metric(2, amplitude=0.05, seed=1)
    rng = np.random.default_rng(3)
    p, q = rng.uniform(0.0, 2 * np.pi, size=(2, 24, 24, 4))
    M = rng.normal(size=(24, 24, 4, 4))
    metric.linearize(q)[1](M)
    tracemalloc.start()
    try:
        G, pullback = metric.linearize(p)
        dGM = pullback(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.nbytes + dGM.nbytes == 576 * (16 + 4) * 8
    assert peak <= G.nbytes + dGM.nbytes + margin
    kept = G.copy(), dGM.copy()
    metric.linearize(q)[1](M)
    assert G.tobytes() == kept[0].tobytes() and dGM.tobytes() == kept[1].tobytes()


def _relative_gap(extended, reference) -> float:
    return float(np.max(np.abs(extended - reference)) / np.max(np.abs(reference)))


@pytest.mark.parametrize("n", [2, 3])
def test_longdouble_points_give_longdouble_jets(n):
    """Longdouble points evaluate in longdouble: value, the jet, its
    complex-step d2G, linearize with its pullback, and a complex-longdouble
    complex step each return their points' precision and agree with float64
    to 1e-14 relative (at most 2.8e-15 measured).  The workspace views each buffer in its
    own real dtype; read as float64, the 80-bit values gave inf."""
    assert np.finfo(np.longdouble).eps < 1e-18  # else the check is vacuous
    metric = default_perturbed_metric(n, amplitude=0.05, seed=1)
    rng = np.random.default_rng(5)
    p = rng.uniform(0.0, 2 * np.pi, size=(300, 2 * n))
    M = rng.normal(size=(300, 2 * n, 2 * n))
    M = M + np.swapaxes(M, -1, -2)
    wide = p.astype(np.longdouble)
    checks = [(metric.value(wide), metric.value(p))]
    checks += list(zip(metric.derivative(wide), metric.derivative(p)))
    checks += [(complex_step_hessian(metric, wide), complex_step_hessian(metric, p))]
    G, pullback = metric.linearize(p)
    dGM = pullback(M)
    wide_G, wide_pullback = metric.linearize(wide)
    checks += [(wide_G, G), (wide_pullback(M.astype(np.longdouble)), dGM)]
    for extended, reference in checks:
        assert extended.dtype == np.longdouble
        assert _relative_gap(extended, reference) <= 1e-14
    step = np.longdouble(1e-30)
    direction = rng.normal(size=p.shape)
    moved = metric.value(wide + 1j * step * direction.astype(np.longdouble))
    assert moved.dtype == np.clongdouble
    dG = np.einsum("nmij,nm->nij", metric.derivative(p)[1], direction)
    assert _relative_gap(moved.real, G) <= 1e-14
    assert _relative_gap(moved.imag / step, dG) <= 1e-14
