"""Grids, spectral calculus, and induced geometry.

Oracles used here:
  * closed forms on the product torus (diagonal metric, volume, curvature
    form and its norm), each read off the `HSResidual` that `hs_residual`
    returns,
  * analytic derivatives of explicit trigonometric polynomials,
  * exact antisymmetry of the spectral derivative matrix,
  * the first-variation identity  d/ds Vol(iota + s X_u) = -<u, d*alpha_H>
    on a non-stationary Lagrangian (an ellipse), which checks the whole pass
    of `hs_residual` (curvature, codifferential and volume) against an
    independent finite difference of its own volume.
"""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import translate

import hslag.geomcore
from hslag.ambient import EuclideanMetric
from hslag.errors import GridMismatchError, ImmersionError, QuotientError
from hslag.geomcore import (
    GridDescriptor,
    Immersion,
    ScalarField,
    hs_residual,
    l2_inner,
    l2_norm,
    spectral_gradient,
    standard_symplectic_matrix,
)

TWO_PI = 2.0 * np.pi
# flat space around the n = 2 models, and around the plane curves
FLAT = EuclideanMetric(2)
PLANE = EuclideanMetric(1)


# ---------------------------------------------------------------------------
# grid descriptors


def test_grid_rejects_odd_and_tiny_sizes():
    with pytest.raises(GridMismatchError):
        GridDescriptor(sizes=(31,), periods=(TWO_PI,))
    with pytest.raises(GridMismatchError):
        GridDescriptor(sizes=(6,), periods=(TWO_PI,))
    with pytest.raises(GridMismatchError):
        GridDescriptor(sizes=(16, 16), periods=(TWO_PI,))
    with pytest.raises(GridMismatchError):
        GridDescriptor(sizes=(16,), periods=(-1.0,))


def test_quotient_flags_validated():
    with pytest.raises(QuotientError):
        GridDescriptor(sizes=(16, 16), periods=(TWO_PI, TWO_PI), quotient=(False, False))
    g = GridDescriptor(sizes=(16, 16), periods=(TWO_PI, TWO_PI), quotient=(True, True))
    assert g.quotient_shift() == (8, 8)


def test_node_weight_and_quotient_halving():
    g = GridDescriptor(sizes=(16, 32), periods=(TWO_PI, 2.0))
    assert np.isclose(g.node_weight(), TWO_PI * 2.0 / (16 * 32))
    q = GridDescriptor(sizes=(16, 16), periods=(TWO_PI, TWO_PI), quotient=(True, True))
    assert np.isclose(q.node_weight(), 0.5 * TWO_PI**2 / 256)
    one = ScalarField(q, np.ones(q.sizes))
    assert np.isclose(l2_inner(one, one), 0.5 * TWO_PI**2)
    square = GridDescriptor(sizes=(32, 32), periods=(TWO_PI, TWO_PI))
    wave = ScalarField(square, np.cos(3 * square.meshgrid()[0]))
    assert np.isclose(l2_norm(wave), np.sqrt(0.5) * TWO_PI, rtol=1e-12)  # |f|^2 = (2 pi)^2/2


def test_scalar_field_quotient_gate():
    g = GridDescriptor(sizes=(16, 16), periods=(TWO_PI, TWO_PI), quotient=(True, True))
    s, phi = g.meshgrid()
    ScalarField(g, np.cos(s - phi))  # invariant under the half-period shift
    with pytest.raises(QuotientError):
        ScalarField(g, np.cos(s))  # flips sign under the shift


# ---------------------------------------------------------------------------
# spectral derivatives


@given(
    k=st.integers(min_value=-7, max_value=7),
    l=st.integers(min_value=-7, max_value=7),
    amp=st.floats(min_value=-3, max_value=3),
    phase=st.floats(min_value=0, max_value=6.0),
)
def test_spectral_derivative_exact_on_trig(k, l, amp, phase):
    g = GridDescriptor(sizes=(32, 32), periods=(TWO_PI, 4.0))
    t1, t2 = g.meshgrid()
    w2 = TWO_PI / 4.0
    f = ScalarField(g, amp * np.cos(k * t1 + l * w2 * t2 + phase))
    df0, df1 = spectral_gradient(f.values, g)
    exact0 = -amp * k * np.sin(k * t1 + l * w2 * t2 + phase)
    exact1 = -amp * l * w2 * np.sin(k * t1 + l * w2 * t2 + phase)
    assert np.max(np.abs(df0 - exact0)) < 1e-10 * max(1.0, abs(amp))
    assert np.max(np.abs(df1 - exact1)) < 1e-10 * max(1.0, abs(amp))


def test_nyquist_mode_is_annihilated():
    g = GridDescriptor(sizes=(16,), periods=(TWO_PI,))
    th = g.axis_coordinates(0)
    f = ScalarField(g, np.cos(8 * th))
    (df,) = spectral_gradient(f.values, g)
    assert np.max(np.abs(df)) < 1e-12


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15)
def test_derivative_matrix_antisymmetric(seed):
    # <Df, g> + <f, Dg> = 0 for arbitrary node data, not only band-limited
    # fields; the adjoint-based volume gradient relies on this being exact.
    rng = np.random.default_rng(seed)
    g = GridDescriptor(sizes=(16, 12), periods=(TWO_PI, 1.0))
    f = ScalarField(g, rng.normal(size=g.sizes))
    h = ScalarField(g, rng.normal(size=g.sizes))
    df, dh = spectral_gradient(f.values, g), spectral_gradient(h.values, g)
    for axis in range(2):
        lhs = l2_inner(ScalarField(g, df[axis]), h)
        rhs = l2_inner(f, ScalarField(g, dh[axis]))
        assert abs(lhs + rhs) < 1e-12 * max(1.0, abs(lhs))


def test_translate_matches_analytic_shift():
    g = GridDescriptor(sizes=(32, 32), periods=(TWO_PI, TWO_PI))
    t1, t2 = g.meshgrid()
    f = ScalarField(g, np.sin(2 * t1) * np.cos(3 * t2) + 0.4 * np.cos(t1 + t2))
    off = (0.3137, -0.977)
    shifted = translate(f, off)
    expect = np.sin(2 * (t1 + off[0])) * np.cos(3 * (t2 + off[1])) + 0.4 * np.cos(
        t1 + off[0] + t2 + off[1]
    )
    assert np.max(np.abs(shifted.values - expect)) < 1e-12


# The transform pair against scipy.fft's pocketfft, per layout: grids at
# n = 2 and 3, and stacks with no, one and two leading axes.
_FFT_GRIDS = [(24, 24), (32, 32), (16, 16, 16)]
_FFT_STACKS = [(), (3,), (5, 2)]


def _split(values, grid, part):
    """One part (0 real, 1 imaginary) of the split layout of a complex
    field's spectra or values."""
    return np.take(values, part, axis=-grid.dim - 1)


@pytest.mark.parametrize("lead", _FFT_STACKS, ids=str)
@pytest.mark.parametrize("sizes", _FFT_GRIDS, ids=str)
def test_transforms_match_scipy_fft(sizes, lead):
    """`_forward` and `_inverse` against scipy.fft.rfftn / irfftn, on real
    stacks and on complex stacks in the split real/imaginary layout, each
    within 1e-15 of the reference transform's largest entry; and against
    numpy.fft.rfftn / irfftn, whose axis order they keep, bit for bit."""
    g = GridDescriptor(sizes=sizes, periods=(TWO_PI,) * len(sizes))
    axes = tuple(range(-g.dim, 0))
    rng = np.random.default_rng(len(sizes) + len(lead))
    x = rng.normal(size=lead + sizes)
    z = x + 1j * rng.normal(size=lead + sizes)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    spectra = scipy.fft.rfftn(x, axes=axes)
    assert close(hslag.geomcore._forward(x, g), spectra)
    assert np.array_equal(hslag.geomcore._forward(x, g), np.fft.rfftn(x, axes=axes))
    assert np.array_equal(
        hslag.geomcore._inverse(spectra, g, False), np.fft.irfftn(spectra, s=sizes, axes=axes)
    )
    split = hslag.geomcore._forward(z, g)
    assert split.shape == lead + (2,) + spectra.shape[len(lead) :]
    for part, values in ((0, z.real), (1, z.imag)):
        assert close(_split(split, g, part), scipy.fft.rfftn(values, axes=axes))

    assert close(hslag.geomcore._inverse(spectra, g, False), scipy.fft.irfftn(spectra, s=sizes, axes=axes))
    pair = np.stack([spectra, scipy.fft.rfftn(z.imag, axes=axes)], axis=-g.dim - 1)
    got = hslag.geomcore._inverse(pair, g, True)
    for part, values in ((np.real, spectra), (np.imag, _split(pair, g, 1))):
        assert close(part(got), scipy.fft.irfftn(values, s=sizes, axes=axes))


@pytest.mark.parametrize("sizes", _FFT_GRIDS, ids=str)
def test_complex_step_transforms_keep_parts_apart(sizes):
    """The imaginary part of a complex field's transform is the transform of
    its imaginary part, bit for bit, and back: a complex step through the
    spectral layer carries no roundoff from the real part."""
    g = GridDescriptor(sizes=sizes, periods=(TWO_PI,) * len(sizes))
    rng = np.random.default_rng(7)
    z = rng.normal(size=(3,) + sizes) + 1e-20j * rng.normal(size=(3,) + sizes)
    split = hslag.geomcore._forward(z, g)
    assert np.array_equal(_split(split, g, 1), hslag.geomcore._forward(z.imag, g))
    assert np.array_equal(_split(split, g, 0), hslag.geomcore._forward(z.real, g))
    values = hslag.geomcore._inverse(split, g, True)
    assert np.array_equal(values.imag, hslag.geomcore._inverse(_split(split, g, 1), g, False))


@pytest.mark.parametrize("sizes", [(24, 24), (16, 16, 16)], ids=str)
def test_hermitian_part_is_a_real_fields_spectrum(sizes):
    """An arbitrary half spectrum's Hermitian part is the spectrum of the
    real field `_inverse` makes of either: the transforms take it there and
    back, and a real field's spectrum is its own Hermitian part."""
    g = GridDescriptor(sizes=sizes, periods=(TWO_PI,) * len(sizes))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2,) + sizes)
    spectra = hslag.geomcore._forward(x, g)
    noisy = spectra + 1e-3 * (rng.normal(size=spectra.shape) + 1j * rng.normal(size=spectra.shape))
    part = hslag.geomcore._hermitian_part(noisy.copy(), g)
    values = hslag.geomcore._inverse(part, g, False)
    scale = np.max(np.abs(spectra))
    assert np.max(np.abs(values - hslag.geomcore._inverse(noisy, g, False))) <= 1e-15 * np.max(np.abs(x))
    assert np.max(np.abs(hslag.geomcore._forward(values, g) - part)) <= 1e-15 * scale
    assert np.max(np.abs(hslag.geomcore._hermitian_part(spectra.copy(), g) - spectra)) <= 1e-15 * scale


# ---------------------------------------------------------------------------
# immersion gates


def test_immersion_rejects_non_lagrangian():
    g = GridDescriptor(sizes=(16, 16), periods=(TWO_PI, TWO_PI))
    t1, t2 = g.meshgrid()
    # Graph of a non-closed one-form over the torus: y = (sin t2, sin t1) is
    # not Lagrangian for omega0 = dx1 ^ dy1 + dx2 ^ dy2 in these coordinates.
    coords = np.stack([np.cos(t1), np.sin(t2), np.cos(t2), np.sin(t1)], axis=-1)
    with pytest.raises(ImmersionError):
        Immersion(g, coords)


def test_immersion_rejects_rank_loss():
    g = GridDescriptor(sizes=(16, 16), periods=(TWO_PI, TWO_PI))
    t1, t2 = g.meshgrid()
    coords = np.stack([np.cos(t1), np.sin(t1), 0 * t2 + 1.0, 0 * t2], axis=-1)
    with pytest.raises(ImmersionError):
        Immersion(g, coords)


def test_quotient_immersion_gate(circle_sphere):
    g = circle_sphere.grid
    bad = circle_sphere.coords.copy()
    bad[0, 0, 0] += 1e-6  # break Z2 invariance at one node
    with pytest.raises((QuotientError, ImmersionError)):
        Immersion(g, bad)


def test_symplectic_matrix_convention():
    om = standard_symplectic_matrix(2)
    assert om[0, 1] == 1.0 and om[1, 0] == -1.0
    assert np.array_equal(om.T, -om)
    assert np.array_equal(om @ om, -np.eye(4))


# ---------------------------------------------------------------------------
# induced geometry on the model torus


def test_torus_induced_metric_diagonal(torus, torus_model):
    h = hs_residual(torus, FLAT).h
    a1, a2 = torus_model.radii
    assert np.max(np.abs(h[..., 0, 0] - a1**2)) < 1e-12
    assert np.max(np.abs(h[..., 1, 1] - a2**2)) < 1e-12
    assert np.max(np.abs(h[..., 0, 1])) < 1e-12


def test_torus_volume_closed_form(torus, torus_model):
    a1, a2 = torus_model.radii
    assert np.isclose(hs_residual(torus, FLAT).volume, TWO_PI**2 * a1 * a2, rtol=1e-13)


def test_torus_curvature_form_is_minus_one(torus):
    alpha = hs_residual(torus, FLAT).alpha
    assert np.max(np.abs(alpha + 1.0)) < 1e-12


def test_torus_curvature_form_norm(torus, torus_model):
    a1, a2 = torus_model.radii
    expect = np.sqrt((1 / a1**2 + 1 / a2**2) * TWO_PI**2 * a1 * a2)
    assert np.isclose(hs_residual(torus, FLAT).alpha_norm, expect, rtol=1e-12)


def test_torus_is_discretely_stationary(torus):
    res = hs_residual(torus, FLAT).defect
    assert np.max(np.abs(res.values)) < 1e-11


def test_residual_scaling_under_dilation(torus):
    # iota -> s iota scales d*alpha_H by 1/s^2
    s = 1.7
    big = Immersion(torus.grid, s * torus.coords)
    r1 = hs_residual(torus, FLAT).defect.values
    r2 = hs_residual(big, FLAT).defect.values
    assert np.max(np.abs(r2 - r1 / s**2)) < 1e-11


# ---------------------------------------------------------------------------
# first-variation identity on a non-stationary Lagrangian


def _ellipse(n_nodes=256, p=1.0, q=1.7):
    g = GridDescriptor(sizes=(n_nodes,), periods=(TWO_PI,))
    th = g.axis_coordinates(0)
    coords = np.stack([p * np.cos(th), q * np.sin(th)], axis=-1)
    return g, Immersion(g, coords)


def test_first_variation_identity_on_ellipse():
    g, imm = _ellipse()
    certificate = hs_residual(imm, PLANE)
    dens = np.sqrt(np.linalg.det(certificate.h))

    def u_fn(c):
        x, y = c[..., 0], c[..., 1]
        return 0.3 * x * y**2 + 0.2 * np.sin(x) * y - 0.11 * x**3 + 0.07 * np.cos(y)

    def hamiltonian_field(c):
        x, y = c[..., 0], c[..., 1]
        ux = 0.3 * y**2 + 0.2 * np.cos(x) * y - 0.33 * x**2
        uy = 0.6 * x * y + 0.2 * np.sin(x) - 0.07 * np.sin(y)
        return np.stack([uy, -ux], axis=-1)  # omega0(X_u, .) = du

    def vol_of(c):
        return hs_residual(Immersion(g, c), PLANE).volume

    s = 5e-5
    X = hamiltonian_field(imm.coords)
    dvol = (vol_of(imm.coords + s * X) - vol_of(imm.coords - s * X)) / (2 * s)
    u = ScalarField(g, u_fn(imm.coords), check=False)
    pairing = np.sum(u.values * certificate.defect.values * dens) * g.node_weight()
    # d/ds Vol = -<u, d*alpha_H>_{L2(dV)}
    assert abs(dvol + pairing) < 1e-7 * max(1.0, abs(pairing))


def test_ellipse_curvature_against_plane_curve_formula():
    # alpha_H(d_theta) = omega0(kappa nu, gamma'); for the ellipse the signed
    # curvature and unit normal are classical closed forms.
    g, imm = _ellipse(n_nodes=128, p=1.0, q=1.7)
    th = g.axis_coordinates(0)
    p, q = 1.0, 1.7
    speed2 = p**2 * np.sin(th) ** 2 + q**2 * np.cos(th) ** 2
    kappa = p * q / speed2**1.5
    gamma_p = np.stack([-p * np.sin(th), q * np.cos(th)], axis=-1)
    # inward normal of the counterclockwise ellipse
    nu = np.stack([-q * np.cos(th), -p * np.sin(th)], axis=-1) / np.sqrt(speed2)[:, None]
    H = kappa[:, None] * nu
    alpha_expect = H[:, 0] * gamma_p[:, 1] - H[:, 1] * gamma_p[:, 0]
    alpha = hs_residual(imm, PLANE).alpha
    assert np.max(np.abs(alpha[0] - alpha_expect)) < 1e-10


# ---------------------------------------------------------------------------
# circle-sphere quotient model geometry


def test_circle_sphere_metric_volume_curvature(circle_sphere):
    residual, alpha, h, _, _, vol = hs_residual(circle_sphere, FLAT)
    assert np.max(np.abs(h - np.eye(2))) < 1e-12
    assert np.isclose(vol, 2 * np.pi**2, rtol=1e-13)
    assert np.max(np.abs(alpha[0] + 2.0)) < 1e-12
    assert np.max(np.abs(alpha[1])) < 1e-12
    assert np.max(np.abs(residual.values)) < 1e-11
