"""Model Lagrangians, the moment-polynomial oracle, and the analytic spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    MomentPolynomial,
    complex_coordinates,
    moment_basis,
    moment_flow,
    moment_from_generator,
    restrict_moment,
    rigidity_prediction,
)

from hslag.errors import UnsupportedModelError
from hslag.models import CircleSphereModel, TorusModel, circle_sphere_spectrum


def test_torus_model_validation():
    with pytest.raises(UnsupportedModelError):
        TorusModel(radii=(1.0, -2.0))
    m = TorusModel(radii=(1.0, 1.3), grid_size=32)
    assert m.n == 2 and m.grid().sizes == (32, 32)


def test_circle_sphere_grid_only_at_n2():
    CircleSphereModel(n=2).grid()
    with pytest.raises(UnsupportedModelError):
        CircleSphereModel(n=3).grid()
    # analytic pieces still work at n = 3
    assert rigidity_prediction(CircleSphereModel(n=3)) == 9 + 6 - 3
    assert len(circle_sphere_spectrum(3, 2, 2)) > 0


def test_moment_basis_dimension():
    for n in (1, 2, 3, 4):
        assert len(moment_basis(n)) == n * n + 2 * n + 1


def test_moment_polynomial_requires_hermitian():
    with pytest.raises(UnsupportedModelError):
        MomentPolynomial(0.0, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15)
def test_moment_flow_generates_hamiltonian_field(seed):
    # finite-difference check that the affine flow of Q satisfies
    # omega0(dz/ds, w) = dQ(w) at s = 0, for every basis element
    rng = np.random.default_rng(seed)
    basis = moment_basis(2)
    Q = basis[rng.integers(len(basis))]
    z0 = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    w = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    eps = 1e-6
    dz = (moment_flow(Q, z0, eps) - moment_flow(Q, z0, -eps)) / (2 * eps)
    # omega0(u, v) = Im(conj(u) . v) in complex coordinates
    lhs = np.sum((dz.conj() * w).imag, axis=-1)
    rhs = (Q.evaluate_complex(z0 + eps * w) - Q.evaluate_complex(z0 - eps * w)) / (2 * eps)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_moment_flow_preserves_symplectic_form(rng):
    # the affine maps are exact symplectomorphisms: check the differential
    Q = moment_basis(2)[7]
    z0 = rng.normal(size=2) + 1j * rng.normal(size=2)
    eps = 1e-6
    cols = []
    for j in range(2):
        for re in (1.0, 1j):
            e = np.zeros(2, complex)
            e[j] = re
            cols.append((moment_flow(Q, z0 + eps * e, 0.37) - moment_flow(Q, z0 - eps * e, 0.37)) / (2 * eps))

    def omega_c(u, v):
        return float(np.sum((np.conj(u) * v).imag))

    # omega0 in the real basis (x1, y1, x2, y2) derived from the complex columns
    order = [(0, 1.0), (0, 1j), (1, 1.0), (1, 1j)]
    om = np.zeros((4, 4))
    for a in range(4):
        for b in range(4):
            om[a, b] = omega_c(cols[a], cols[b])
    expect = np.zeros((4, 4))
    for a, (ja, ra) in enumerate(order):
        for b, (jb, rb) in enumerate(order):
            u = np.zeros(2, complex)
            u[ja] = ra
            v = np.zeros(2, complex)
            v[jb] = rb
            expect[a, b] = omega_c(u, v)
    assert np.max(np.abs(om - expect)) < 1e-8


def test_generator_roundtrip(rng):
    tr = rng.normal(size=4)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rot = a - a.conj().T
    Q = moment_from_generator(translation=tr, rotation=rot)
    c, delta = Q.generator()
    assert np.max(np.abs(delta - rot)) < 1e-12
    c_real = np.stack([c.real, c.imag], axis=-1).reshape(-1)
    assert np.max(np.abs(c_real - tr)) < 1e-12


def test_restriction_values_on_torus(torus):
    # |z_1|^2 restricted to the torus is the constant a_1^2
    B = moment_basis(2)
    f = restrict_moment(B[5], torus)  # c_11 block
    assert np.max(np.abs(f.values - 1.0)) < 1e-13
    f2 = restrict_moment(B[6], torus)  # c_22 block
    assert np.max(np.abs(f2.values - 1.3**2)) < 1e-12
    # Re z_1 restricted is cos(theta_1)
    t1 = torus.grid.meshgrid()[0]
    f3 = restrict_moment(B[1], torus)
    assert np.max(np.abs(f3.values - np.cos(t1))) < 1e-13


def test_restriction_is_z2_invariant_on_circle_sphere(circle_sphere):
    for Q in moment_basis(2):
        restrict_moment(Q, circle_sphere)  # ScalarField gate enforces invariance


def test_complex_coordinates_convention():
    c = np.array([1.0, 2.0, 3.0, 4.0])
    z = complex_coordinates(c)
    assert z[0] == 1 + 2j and z[1] == 3 + 4j


# ---------------------------------------------------------------------------
# analytic spectrum of the circle-sphere stability operator


def test_spectrum_parity_and_kernel():
    spec = circle_sphere_spectrum(2, 8, 8)
    assert all((k + l) % 2 == 0 for k, l, _, _ in spec)
    kernel = [(k, l, m) for k, l, m, e in spec if abs(e) < 1e-12]
    assert sum(m for _, _, m in kernel) == 7
    assert set((k, l) for k, l, _ in kernel) == {(0, 0), (1, 1), (0, 2)}


def test_spectrum_nonnegative_and_gap():
    spec = circle_sphere_spectrum(2, 10, 10)
    eigs = np.array([e for _, _, _, e in spec])
    assert np.min(eigs) >= 0.0
    positive = np.sort(eigs[eigs > 1e-12])
    # enumerate the low modes explicitly instead of trusting the sort
    expect = {}
    for k in range(4):
        for l in range(4):
            if (k + l) % 2 == 0:
                lam = l * l  # n = 2: lam_l = l(l + n - 2) = l^2
                expect[(k, l)] = (k * k + lam - 2) ** 2 + 4 * (k * k - 1)
    low = min(v for v in expect.values() if v > 1e-12)
    assert np.isclose(positive[0], low)


def test_spectrum_multiplicities():
    spec = {(k, l): m for k, l, m, _ in circle_sphere_spectrum(2, 4, 4)}
    assert spec[(0, 0)] == 1
    assert spec[(1, 1)] == 4
    assert spec[(0, 2)] == 2
    assert spec[(2, 2)] == 4
    assert spec[(2, 0)] == 2


def test_spectrum_n3_multiplicities():
    spec = {(k, l): m for k, l, m, _ in circle_sphere_spectrum(3, 3, 3)}
    # dim H_l(S^2) = 2l + 1
    assert spec[(0, 0)] == 1
    assert spec[(1, 1)] == 2 * 3
    assert spec[(0, 2)] == 5
    assert spec[(2, 2)] == 2 * 5


def test_rigidity_counts():
    assert rigidity_prediction(TorusModel(radii=(1.0, 1.3))) == 7
    assert rigidity_prediction(TorusModel(radii=(1.0, 1.3, 0.8))) == 13
    assert rigidity_prediction(CircleSphereModel(n=2)) == 7
    with pytest.raises(UnsupportedModelError):
        rigidity_prediction(TorusModel(radii=(1.0, 1.0)))
