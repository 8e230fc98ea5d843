"""Reference implementations the tests check the package against.

Each one computes an object the package also computes, or a prediction for
it, by an independent route: Richardson finite differences against the
complex-step Hessian, the dense complex-step Hessian against the flat
operator's symbol and for the perturbed metrics, the complex-step
Hessian-vector product against the second variation's transverse block,
the ambient moment polynomials against the operator kernels and the
frame-variation potentials, Fourier phase shifts against frame rotations,
and the defining identities of metrics and frames.  None of them runs in a
suite.  The flat operator's action on a field, a Fourier multiplier
through its symbol, lives here too: only the tests apply it.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from hslag.ambient import (
    ChartMetric,
    EuclideanMetric,
    SymplecticExpMetric,
    UnitaryFrame,
    ball_samples,
    unitary_algebra_basis,
)
from hslag.errors import RankDeficiencyError, UnsupportedModelError
from hslag.geomcore import (
    GridDescriptor,
    Immersion,
    ScalarField,
    _forward,
    _inverse,
    band_mask,
    derivative_multipliers,
    l2_norm,
    mode_mesh,
    spectral_gradient,
    standard_symplectic_matrix,
)
from hslag.models import CircleSphereModel, TorusModel
from hslag.moser import _FD_STEP, flow_map
from hslag.operators import (
    _CS_STEP,
    SpectralData,
    SymbolOperator,
    _real_modes,
    assemble_flat_operator,
)
from hslag.reduction import ReductionContext, ReductionState, _volume_modes, variation_potential
from hslag.weinstein import graph_volume_and_gradient

# ---------------------------------------------------------------------------
# grids and graphs


def translate(f: ScalarField, offsets: Sequence[float]) -> ScalarField:
    """Evaluate theta -> f(theta + offsets); exact on band-limited data."""
    grid = f.grid
    spec = np.fft.fftn(f.values)
    for a in range(grid.dim):
        k = np.fft.fftfreq(grid.sizes[a], d=1.0 / grid.sizes[a])
        phase = np.exp(2j * np.pi / grid.periods[a] * k * offsets[a])
        shape = [1] * grid.dim
        shape[a] = grid.sizes[a]
        spec = spec * phase.reshape(shape)
    return ScalarField(grid, np.fft.ifftn(spec).real, check=False)


def band_limited_field(grid: GridDescriptor, rng, scale: float, modes: int = 6, k_max: int = 3):
    """Zero-mean real grid values from `modes` random Fourier pairs with
    |k_j| <= k_max, scaled to max |value| = scale."""
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


def fourier_multiply(values: np.ndarray, grid: GridDescriptor, table: np.ndarray) -> np.ndarray:
    """Apply a real, even multiplier, given on the `mode_mesh` layout, to real
    fields over the trailing grid axes."""
    half = table[..., : grid.sizes[-1] // 2 + 1]
    return _inverse(_forward(values, grid) * half, grid, False)


def symbol_apply(op: SymbolOperator, f: ScalarField) -> ScalarField:
    """The flat operator applied to a field: FFT, its symbol on the
    admissible modes (zero on the rest), inverse FFT."""
    multiplier = np.where(op.admissible, op.symbol, 0.0)
    return ScalarField(op.grid, fourier_multiply(f.values, op.grid, multiplier), check=False)


def chart_map_jets(model: TorusModel, f: np.ndarray):
    """The graph of df over the model's grid through the chart map
    Phi(theta, y), with dense chart Jacobians:
    (r2, coords, phi_theta, phi_y, phi_yy, Y).

    y = grad f and the Hessian Y[j, a] = d_j d_a f come from `spectral_gradient`;
    coords = Phi(theta, y) with Phi_j = sqrt(a_j^2 + 2 y_j) (cos, sin)(theta_j),
    and phi_theta, phi_y, phi_yy [..., n, 2n] hold d Phi/d theta_j,
    d Phi/d y_j and d^2 Phi/d y_j^2 in row j, written out slot by slot."""
    n, grid = model.n, model.grid()
    y = np.moveaxis(spectral_gradient(f, grid), 0, -1)
    Y = np.moveaxis(spectral_gradient(y, grid), 0, -1)  # [..., j, a] = d_a y_j
    theta = grid.meshgrid()
    r2 = np.array([a * a for a in model.radii]) + 2 * y
    r = np.sqrt(r2)
    coords = np.zeros(f.shape + (2 * n,), dtype=r.dtype)
    phi_theta = np.zeros(f.shape + (n, 2 * n), dtype=r.dtype)
    phi_y, phi_yy = np.zeros_like(phi_theta), np.zeros_like(phi_theta)
    for j in range(n):
        c, s, rj = np.cos(theta[j]), np.sin(theta[j]), r[..., j]
        coords[..., 2 * j], coords[..., 2 * j + 1] = rj * c, rj * s
        phi_theta[..., j, 2 * j], phi_theta[..., j, 2 * j + 1] = -rj * s, rj * c
        phi_y[..., j, 2 * j], phi_y[..., j, 2 * j + 1] = c / rj, s / rj
        phi_yy[..., j, 2 * j], phi_yy[..., j, 2 * j + 1] = -c / rj**3, -s / rj**3
    return r2, coords, phi_theta, phi_y, phi_yy, Y


def graph_immersion(model: TorusModel, f: ScalarField) -> Immersion:
    """Node immersion theta -> Phi(theta, grad f), validity-gated."""
    coords = chart_map_jets(model, f.values)[1]
    return Immersion(f.grid, coords.real)


def flat_chart(n: int) -> ChartMetric:
    """Flat space as the graph volume takes it: EuclideanMetric in the
    identity chart (p = 0, u = I, t = 1)."""
    return ChartMetric(EuclideanMetric(n), UnitaryFrame(np.zeros(2 * n), np.eye(2 * n)), 1.0)


def volume_gradient(model: TorusModel, f: np.ndarray, metric):
    """`graph_volume_and_gradient` with its gradient spectrum transformed to
    grid values (complex for complex f) and its affine sensitivity pair
    formed: (volume, gradient, (dvol/db, dvol/dA))."""
    vol, spectrum, sensitivity = graph_volume_and_gradient(model, f, metric)
    return vol, _inverse(spectrum, model.grid(), np.iscomplexobj(f)), sensitivity()


def pullback_graph_volume(model: TorusModel, f: np.ndarray, metric):
    """`graph_volume_and_gradient` in chart coordinates: the metric's own jet
    (for a ChartMetric, the base jet pulled back through the frame), the
    induced metric T g T^T, and LAPACK's per-node det and inv.  Returns
    (volume, gradient, (dvol/db, dvol/dA)) as the package does."""
    n, d, grid = model.n, 2 * model.n, model.grid()
    r2, coords, phi_theta, phi_y, phi_yy, Y = chart_map_jets(model, f)
    T = phi_theta + np.swapaxes(Y, -1, -2) @ phi_y
    G, dG = metric.derivative(coords)
    Tt = np.swapaxes(T, -1, -2)
    GTt = G @ Tt
    h = T @ GTt
    q = np.sqrt(np.linalg.det(h))
    hinv = np.linalg.inv(h)
    w, lead = grid.node_weight(), q.shape
    dTdy = (phi_yy[..., :, None, :] * Y[..., :, :, None]).astype(q.dtype, copy=False)
    for j in range(n):
        dTdy[..., j, j, :] += phi_theta[..., j, :] / r2[..., j, None]
    W = hinv @ np.swapaxes(GTt, -1, -2)
    A = dTdy.reshape(lead + (n, n * d)) @ W.reshape(lead + (n * d, 1))
    M = Tt @ hinv @ T
    dGM = dG.reshape(lead + (d, d * d)) @ M.reshape(lead + (d * d, 1))
    half_q = 0.5 * w * q.reshape(-1)
    weighted_dGM = half_q[:, None] * dGM.reshape(-1, d)
    weighted_T = (half_q[:, None, None] * T.reshape(-1, n, d)).reshape(-1, d)
    d_shift = weighted_dGM.sum(axis=0)
    d_linear = 2.0 * (W.reshape(-1, d).T @ weighted_T) + weighted_dGM.T @ coords.reshape(-1, d)
    A = q[..., None] * (A + 0.5 * (phi_y @ dGM))[..., 0]
    B = q[..., None, None] * (phi_y @ GTt @ np.swapaxes(hinv, -1, -2))
    ik = derivative_multipliers(grid)
    fields = np.concatenate([np.moveaxis(A, -1, 0), np.moveaxis(B.reshape(lead + (n * n,)), -1, 0)])
    symbols = [-ik[j] for j in range(n)] + [ik[j] * ik[c] for j in range(n) for c in range(n)]
    P_hat = sum(k * x for k, x in zip(symbols, _forward(fields, grid)))
    P = _inverse(P_hat, grid, np.iscomplexobj(fields))
    return np.sum(q) * w, P / model.flat_density(), (d_shift, d_linear)


# ---------------------------------------------------------------------------
# metrics and frames


def compatibility_defect(values: np.ndarray) -> float:
    """max |J^2 + I| over points, J = -G^{-1} Omega0."""
    d = values.shape[-1]
    om = standard_symplectic_matrix(d // 2)
    J = -np.linalg.solve(values, np.broadcast_to(om, values.shape))
    eye = np.eye(d)
    return float(np.max(np.abs(J @ J + eye)))


def einsum_generator_jet(metric, points: np.ndarray, order: int) -> list:
    """[Y, dY, d2Y][:order + 1] of a SymplecticExpMetric's generator, each
    derivative written out as its own einsum over the waves, in the jet
    contract's layout dY[..., mu, i, j] and d2Y[..., mu, nu, i, j].  The
    phase arguments m.p are one matrix product, as in the package: an einsum
    rounds them differently, by a few ulps of the largest argument (up to
    about 50), which is more than the jet oracles' tolerance."""
    arg = points @ metric.wave_vectors.T
    c, s = np.cos(arg), np.sin(arg)
    m, A, B = metric.wave_vectors, metric.cos_coeffs, metric.sin_coeffs
    jet = [np.einsum("...k,kij->...ij", c, A) + np.einsum("...k,kij->...ij", s, B)]
    if order >= 1:
        jet.append(
            np.einsum("...k,km,kij->...mij", -s, m, A) + np.einsum("...k,km,kij->...mij", c, m, B)
        )
    if order >= 2:
        mm = np.einsum("km,kn->kmn", m, m)
        jet.append(
            np.einsum("...k,kmn,kij->...mnij", -c, mm, A)
            + np.einsum("...k,kmn,kij->...mnij", -s, mm, B)
        )
    return [metric.amplitude * x for x in jet]


def recurrence_jet(metric, points: np.ndarray, order: int) -> tuple:
    """(G, dG, d2G)[:order + 1] of a SymplecticExpMetric by the shared-powers
    recurrences of Al-Mohy & Higham (SIAM J. Matrix Anal. Appl. 2009),

        T_j = T_{j-1} Y / j,
        F_j(E) = (F_{j-1}(E) Y + T_{j-1} E) / j,
        S_j(E1,E2) = (S_{j-1} Y + F_{j-1}(E1) E2 + F_{j-1}(E2) E1) / j,

    G = sum T_j, dG = sum F_j(dY), d2G = sum S_j(dY, dY) + sum F_j(d2Y), over
    the metric's own number of terms and from `einsum_generator_jet`: the
    same polynomial as the package's Paterson-Stockmeyer jet, summed term by
    term in another order.  F runs over the stacked directions [dY; d2Y]
    and S over the pairs (dY_mu, dY_nu), stored direction-inside as
    [..., a, e, j] and [..., a, mu, nu, j]."""
    Y, *dY = einsum_generator_jet(metric, np.asarray(points), order)
    lead, d = Y.shape[:-2], Y.shape[-1]
    T = np.broadcast_to(np.eye(d, dtype=Y.dtype), Y.shape).copy()
    G = T.copy()
    if order >= 1:
        E = np.concatenate([D.reshape(lead + (-1, d, d)) for D in dY], axis=-3)
        E = np.moveaxis(E, -3, -2).reshape(lead + (d, -1))  # [k, (e, j)]
        F, dG = np.zeros_like(E), np.zeros_like(E)
    if order == 2:
        dY1 = E[..., : d * d]  # [k, (nu, j)] for the first-order directions
        S = np.zeros(lead + (d, d, d, d), dtype=Y.dtype)
        d2G = np.zeros_like(S)
    for j in range(1, metric._terms + 1):
        if order == 2:
            F1 = F.reshape(lead + (d, -1, d))[..., :d, :].reshape(lead + (d * d, d))
            P = (F1 @ dY1).reshape(S.shape)  # P[a, mu, nu, j] = (F_mu dY_nu)[a, j]
            S = ((S.reshape(lead + (-1, d)) @ Y).reshape(P.shape) + P + np.swapaxes(P, -3, -2)) / j
            d2G += S
        if order >= 1:
            F = ((F.reshape(lead + (-1, d)) @ Y).reshape(E.shape) + T @ E) / j
            dG += F
        T = T @ Y / j
        G += T
    if order == 0:
        return (G,)
    dG = np.moveaxis(dG.reshape(lead + (d, -1, d)), -3, -2)  # [e, a, j]
    if order == 1:
        return G, dG
    d2G = np.moveaxis(d2G, -4, -2) + dG[..., d:, :, :].reshape(S.shape)
    return G, dG[..., :d, :, :], d2G


def frame_defects(metric, frame) -> tuple[float, float]:
    G = metric.value(frame.point)
    om = standard_symplectic_matrix(G.shape[0] // 2)
    u = frame.matrix
    return (
        float(np.max(np.abs(u.T @ G @ u - np.eye(G.shape[0])))),
        float(np.max(np.abs(u.T @ om @ u - om))),
    )


# ---------------------------------------------------------------------------
# moment polynomials: Q(z) = a + sum_j (b_j z_j + conj) + sum_jk c_jk z_j conj(z_k)
# with c Hermitian, the Hamiltonians of the affine isometries (translations and
# unitary rotations); their restrictions to a model span its operator kernel.


def complex_coordinates(coords: np.ndarray) -> np.ndarray:
    """Interleaved real coords (..., 2n) -> complex coords (..., n)."""
    return coords[..., 0::2] + 1j * coords[..., 1::2]


@dataclass
class MomentPolynomial:
    """Q(z) = constant + sum_j (b_j z_j + conj) + sum_jk c_jk z_j conj(z_k).

    The Hermitian constraint conj(c_jk) = c_kj makes Q real-valued.
    """

    constant: float
    linear: np.ndarray  # complex (n,)
    hermitian: np.ndarray  # complex (n, n), Hermitian

    def __post_init__(self) -> None:
        self.linear = np.asarray(self.linear, dtype=complex)
        self.hermitian = np.asarray(self.hermitian, dtype=complex)
        n = self.linear.shape[0]
        if self.hermitian.shape != (n, n):
            raise UnsupportedModelError("hermitian block shape mismatch")
        if np.max(np.abs(self.hermitian - self.hermitian.conj().T)) > 1e-12:
            raise UnsupportedModelError("quadratic block must be Hermitian")

    @property
    def n(self) -> int:
        return self.linear.shape[0]

    def evaluate_complex(self, z: np.ndarray) -> np.ndarray:
        lin = 2.0 * np.real(np.einsum("j,...j->...", self.linear, z))
        quad = np.real(np.einsum("jk,...j,...k->...", self.hermitian, z, z.conj()))
        return self.constant + lin + quad

    def evaluate(self, coords: np.ndarray) -> np.ndarray:
        return self.evaluate_complex(complex_coordinates(coords))

    def generator(self) -> tuple[np.ndarray, np.ndarray]:
        """Hamiltonian generator (translation c in C^n, rotation delta in u(n)).

        The flow of Q under omega0 is z' = delta z + c with delta = -2i c_herm^T
        and c = -2i conj(b); both identities are pinned by tests against
        finite differences of Q.
        """
        delta = -2j * self.hermitian.T
        c = -2j * np.conj(self.linear)
        return c, delta


def moment_from_generator(
    translation: Optional[np.ndarray] = None, rotation: Optional[np.ndarray] = None, n: int = 2
) -> MomentPolynomial:
    """Moment polynomial of a Euclidean-symplectic generator.

    translation: real vector (2n,) in interleaved coordinates, or None.
    rotation: complex anti-Hermitian (n, n), or None.
    """
    if translation is not None:
        translation = np.asarray(translation, dtype=float)
        n = translation.shape[0] // 2
    if rotation is not None:
        rotation = np.asarray(rotation, dtype=complex)
        n = rotation.shape[0]
    b = np.zeros(n, dtype=complex)
    c = np.zeros((n, n), dtype=complex)
    if translation is not None:
        cx, cy = translation[0::2], translation[1::2]
        b = 0.5 * (-cy - 1j * cx)
    if rotation is not None:
        if np.max(np.abs(rotation + rotation.conj().T)) > 1e-12:
            raise UnsupportedModelError("rotation generator must be anti-Hermitian")
        c = (0.5j * rotation).T
    return MomentPolynomial(0.0, b, c)


def moment_flow(Q: MomentPolynomial, z: np.ndarray, s: float) -> np.ndarray:
    """Time-s Hamiltonian flow of Q on complex points (exact affine map)."""
    c, delta = Q.generator()
    n = Q.n
    block = np.zeros((n + 1, n + 1), dtype=complex)
    block[:n, :n] = s * delta
    block[:n, n] = s * c
    phi = scipy.linalg.expm(block)
    return np.einsum("jk,...k->...j", phi[:n, :n], z) + phi[:n, n]


def moment_basis(n: int) -> list[MomentPolynomial]:
    """Basis of the moment polynomial space, dimension n^2 + 2n + 1.

    Order: constant; Re/Im linear generator per coordinate; diagonal |z_j|^2;
    off-diagonal Hermitian pairs Re(z_j conj(z_k)), -Im(z_j conj(z_k)).
    """
    out = [MomentPolynomial(1.0, np.zeros(n), np.zeros((n, n)))]
    for j in range(n):
        b = np.zeros(n, dtype=complex)
        b[j] = 0.5
        out.append(MomentPolynomial(0.0, b, np.zeros((n, n))))
        b = np.zeros(n, dtype=complex)
        b[j] = -0.5j
        out.append(MomentPolynomial(0.0, b, np.zeros((n, n))))
    for j in range(n):
        c = np.zeros((n, n), dtype=complex)
        c[j, j] = 1.0
        out.append(MomentPolynomial(0.0, np.zeros(n), c))
    for j in range(n):
        for k in range(j + 1, n):
            c = np.zeros((n, n), dtype=complex)
            c[j, k] = 0.5
            c[k, j] = 0.5
            out.append(MomentPolynomial(0.0, np.zeros(n), c))
            c = np.zeros((n, n), dtype=complex)
            c[j, k] = 0.5j
            c[k, j] = -0.5j
            out.append(MomentPolynomial(0.0, np.zeros(n), c))
    assert len(out) == n * n + 2 * n + 1
    return out


def restrict_moment(Q: MomentPolynomial, imm: Immersion) -> ScalarField:
    """Q restricted to the Lagrangian: one real sample per grid node."""
    if Q.n != imm.grid.dim and 2 * Q.n != imm.coords.shape[-1]:
        raise UnsupportedModelError("moment polynomial dimension mismatch")
    return ScalarField(imm.grid, Q.evaluate(imm.coords), check=False)


def rigidity_prediction(model) -> int:
    """Expected kernel dimension of the flat stability operator.

    Torus with pairwise distinct radii: n^2 + n + 1 (the diagonal torus is the
    full isometry stabilizer).  Circle-sphere model: n^2 + 2n - n(n-1)/2.
    Repeated torus radii enlarge the stabilizer and are rejected explicitly.
    """
    if isinstance(model, TorusModel):
        if len(set(model.radii)) != len(model.radii):
            raise UnsupportedModelError(
                "rigidity count implemented only for pairwise distinct radii "
                "(repeated radii enlarge the symmetry group)"
            )
        n = model.n
        return n * n + n + 1
    if isinstance(model, CircleSphereModel):
        n = model.n
        return n * n + 2 * n - (n * (n - 1)) // 2
    raise UnsupportedModelError(f"unknown model {type(model)!r}")


# ---------------------------------------------------------------------------
# operators: the dense complex-step Hessian of the discrete volume, the
# independent check on the flat symbol and the operator of a perturbed metric


class OperatorSymmetryError(ValueError):
    """An assembled operator is too far from volume-weighted self-adjointness."""


@dataclass
class GridOperator:
    """Dense self-adjoint operator on grid fields with a constant measure weight.

    basis_matrix maps basis coefficients to node values (identity when None;
    the Nyquist-free band basis for assembled Hessians).  The L^2 measure
    is weight * sum over nodes, with constant weight (the model volume
    densities are constant), so self-adjointness is plain matrix symmetry.
    """

    grid: GridDescriptor
    matrix: np.ndarray
    weight: float
    basis_matrix: Optional[np.ndarray] = None

    def to_node_values(self, coeffs: np.ndarray) -> np.ndarray:
        vec = coeffs if self.basis_matrix is None else self.basis_matrix @ coeffs
        return vec.reshape(self.grid.sizes)

    def from_node_values(self, values: np.ndarray) -> np.ndarray:
        vec = np.asarray(values).reshape(-1)
        return vec if self.basis_matrix is None else self.basis_matrix.T @ vec

    def apply(self, f: ScalarField) -> ScalarField:
        coeffs = self.matrix @ self.from_node_values(f.values)
        return ScalarField(self.grid, self.to_node_values(coeffs), check=False)

    def asymmetry(self) -> float:
        scale = max(float(np.max(np.abs(self.matrix))), 1e-300)
        return float(np.max(np.abs(self.matrix - self.matrix.T))) / scale

    def symmetrized(self, tol: float = 1e-8) -> "GridOperator":
        rel = self.asymmetry()
        if rel > tol:
            raise OperatorSymmetryError(
                f"assembled operator asymmetric at relative level {rel:.3e}"
            )
        return GridOperator(
            self.grid, 0.5 * (self.matrix + self.matrix.T), self.weight, self.basis_matrix
        )


def band_limited_basis(grid: GridDescriptor) -> np.ndarray:
    """Orthonormal node-space basis (nodes x dim) of the band: its real
    Fourier fields, in flat mode order."""
    fields = _real_modes(grid, np.flatnonzero(band_mask(grid))).reshape(-1, grid.num_nodes).T
    return fields / np.linalg.norm(fields, axis=0)


def _assemble_graph_hessian(model: TorusModel, metric) -> GridOperator:
    """Hessian of the graph volume at f = 0 by complex-step columns.

    Column k is Im P(i eta e_k)/eta, the exact directional derivative of the
    volume-gradient residual along the k-th node indicator (no step error:
    all operations in the residual are analytic in the field values).  The
    volume returns P's spectrum with the real and imaginary parts split on
    a leading axis, so only the imaginary part is transformed back.
    """
    grid = model.grid()
    nn = grid.num_nodes
    f = np.zeros(grid.sizes, dtype=complex)
    cols = np.empty((nn, nn))
    flat = f.reshape(-1)
    for k in range(nn):
        flat[k] = 1j * _CS_STEP
        _, P_hat, _ = graph_volume_and_gradient(model, f, metric)
        cols[:, k] = (_inverse(P_hat[1], grid, False) / _CS_STEP).reshape(-1)
        flat[k] = 0.0
    weight = grid.node_weight() * model.flat_density()
    basis = band_limited_basis(grid)
    cols = basis.T @ cols @ basis
    return GridOperator(grid, cols, weight, basis_matrix=basis)


def assemble_perturbed_operator(model: TorusModel, metric) -> GridOperator:
    """Linearization of the scaled-metric residual at the zero graph.

    In `flat_chart` this is the flat Hessian, the dense oracle for the
    symbols of `assemble_flat_operator` and `probe_flat_operator`.
    """
    return _assemble_graph_hessian(model, metric).symmetrized()


def dense_eigensolve(op: GridOperator, count: Optional[int] = None) -> SpectralData:
    """The lowest `count` eigenpairs (all when None) of a dense operator by a
    symmetric solve, eigenvalues ascending, eigenfields L^2-orthonormalized
    against the grid weight.  Refuses an operator asymmetric beyond 1e-8."""
    if op.asymmetry() > 1e-8:
        raise OperatorSymmetryError("operator asymmetric beyond tolerance; refusing eigensolve")
    w, V = np.linalg.eigh(0.5 * (op.matrix + op.matrix.T))
    w, V = w[:count], V[:, :count]
    fields = []
    for i in range(V.shape[1]):
        vals = op.to_node_values(V[:, i])
        fld = ScalarField(op.grid, vals, check=False)
        fields.append(ScalarField(op.grid, vals / l2_norm(fld), check=False))
    return SpectralData(np.asarray(w, dtype=float), fields)


def assemble_by_finite_differences(model: TorusModel, metric, step: float = 1e-4) -> GridOperator:
    """Richardson-extrapolated central-difference assembly (cross-check path).

    Columns combine central differences at steps h and h/2 to cancel the
    O(h^2) truncation term; used to validate the complex-step assembly.
    """
    grid = model.grid()
    nn = grid.num_nodes
    cols = np.empty((nn, nn))
    f = np.zeros(grid.sizes)
    flat = f.reshape(-1)

    def residual():
        _, P, _ = volume_gradient(model, f, metric)
        return P.reshape(-1)

    for k in range(nn):
        estimates = []
        for h in (step, step / 2):
            flat[k] = h
            plus = residual()
            flat[k] = -h
            minus = residual()
            flat[k] = 0.0
            estimates.append((plus - minus) / (2 * h))
        cols[:, k] = (4 * estimates[1] - estimates[0]) / 3
    weight = grid.node_weight() * model.flat_density()
    basis = band_limited_basis(grid)
    cols = basis.T @ cols @ basis
    return GridOperator(grid, cols, weight, basis_matrix=basis).symmetrized(tol=1e-6)


def second_variation_consistency(
    model: TorusModel, f: ScalarField, op=None, step: float = 1e-3
) -> tuple[float, float]:
    """(5-point FD second derivative of Vol along the graph ray, <Lf, f>)."""
    if op is None:
        op = assemble_flat_operator(model)
    grid = model.grid()

    def vol(s: float) -> float:
        v, _, _ = graph_volume_and_gradient(
            model, s * f.values, flat_chart(model.n), need_gradient=False
        )
        return float(v.real)

    e = step
    fd2 = (-vol(2 * e) + 16 * vol(e) - 30 * vol(0.0) + 16 * vol(-e) - vol(-2 * e)) / (12 * e * e)
    # The Hessian form lives in L^2 of the model volume measure (node weight
    # times the flat density), not the bare coordinate measure used by
    # l2_inner.
    fv = f.values.reshape(-1)
    weight = grid.node_weight() * model.flat_density()
    quad = float(fv @ symbol_apply(op, f).values.reshape(-1)) * weight
    return fd2, quad


def complex_step_second_variation(
    ctx: ReductionContext, state: ReductionState, directions: Sequence[ScalarField]
) -> np.ndarray:
    """<h, Im P(f + i s h)> / s for each direction h at a solved state, in
    chart scale: the volume's Hessian-vector product from one complex-step
    gradient volume, paired with h, with no step error at s = _CS_STEP."""
    metric = ChartMetric(ctx.metric, state.unitary, state.t)
    out = []
    for h in directions:
        f = state.f.values + 1j * _CS_STEP * h.values
        _, gradient, _ = graph_volume_and_gradient(ctx.model, f, metric)
        product = _inverse(gradient[1], ctx.grid, False) / _CS_STEP
        out.append(ctx.vol_inner(h, ScalarField(ctx.grid, product, check=False)))
    return np.array(out)


def operator_distance(op_a: GridOperator, op_b: GridOperator) -> float:
    """Spectral-norm distance between two operators on the same grid/basis."""
    diff = op_a.matrix - op_b.matrix
    diff = 0.5 * (diff + diff.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# set-up one mode, one constraint and one basis element at a time: the
# references the whole-array set-up must equal bit for bit


def mode_field(grid: GridDescriptor, index: int) -> np.ndarray:
    """L^2-normalized real field of one flat mode index on the full node mesh:
    cos(k.theta) when the index is below that of -k, else sin(k.theta), with
    k the signed wave numbers `mode_mesh` gives the index."""
    sizes = grid.sizes
    k = [kj.reshape(-1)[[index]].astype(int) for kj in mode_mesh(grid)]
    partner = np.ravel_multi_index(tuple(-kj for kj in k), sizes, mode="wrap")
    nodes = np.indices(sizes)[..., None]
    phase = sum(2.0 * np.pi * kj * nodes[j] / sizes[j] for j, kj in enumerate(k))
    values = np.where(index <= partner, np.cos(phase), np.sin(phase))[..., 0]
    return values / l2_norm(ScalarField(grid, values, check=False))


def anticommuting_constraints(n: int) -> np.ndarray:
    """X_ij - X_ji = 0 (i < j), then (X Om + Om X)_ij = 0, one row per
    condition on the flattened X, built entry by entry."""
    d = 2 * n
    om = standard_symplectic_matrix(n)
    rows = []
    for i in range(d):
        for j in range(i + 1, d):
            r = np.zeros((d, d))
            r[i, j], r[j, i] = 1.0, -1.0
            rows.append(r.reshape(-1))
    for i in range(d):
        for j in range(d):
            r = np.zeros((d, d))
            for k in range(d):
                for l in range(d):
                    r[k, l] = (om[l, j] if k == i else 0.0) + (om[i, k] if l == j else 0.0)
            rows.append(r.reshape(-1))
    return np.array(rows)


def loop_perturbed_metric(
    n: int = 2, amplitude: float = 0.05, seed: int = 0, num_waves: int = 3
) -> SymplecticExpMetric:
    """default_perturbed_metric from the entry-by-entry constraints, with each
    coefficient summed over the basis one element at a time."""
    rows = anticommuting_constraints(n)
    _, singular, vt = np.linalg.svd(rows)
    rank = int(np.count_nonzero(singular > max(rows.shape) * np.finfo(float).eps * singular[0]))
    basis = [vt[k].reshape(2 * n, 2 * n) for k in range(rank, len(vt))]
    rng = np.random.default_rng(seed)
    waves, cos_c, sin_c = [], [], []
    while len(waves) < num_waves:
        m = rng.integers(-2, 3, size=2 * n)
        if not np.any(m):
            continue
        waves.append(m)
        ca = rng.normal(size=len(basis))
        cb = rng.normal(size=len(basis))
        cos_c.append(sum(a * X for a, X in zip(ca, basis)) / np.sqrt(len(basis)))
        sin_c.append(sum(b * X for b, X in zip(cb, basis)) / np.sqrt(len(basis)))
    return SymplecticExpMetric(
        n, np.array(waves, dtype=float), np.array(cos_c), np.array(sin_c), amplitude
    )


def loop_context(radii: Sequence[float], grid_size: int, metric) -> dict:
    """build_context's arrays from the analytic symbol summed term by term,
    with the kernel's mode indices, the flat density that volume-normalizes
    them, and the band off the kernel as a mask of its own."""
    model = TorusModel(tuple(radii), grid_size=grid_size)
    grid = model.grid()
    a2 = np.array([a * a for a in radii])
    k = np.stack(np.meshgrid(*[np.fft.fftfreq(s, d=1.0 / s) for s in grid.sizes], indexing="ij"), -1)
    lap = np.sum(k**2 / a2, axis=-1)
    symbol = lap**2 - np.sum(k**2 / a2**2, axis=-1) + (
        np.sum(k / a2, axis=-1) ** 2 - np.sum(k**2 / a2**2, axis=-1)
    )
    admissible = np.all(np.abs(k) < np.array(grid.sizes) / 2, axis=-1)
    modes = np.flatnonzero(admissible)
    order = np.lexsort((modes, symbol.reshape(-1)[modes]))
    eigenvalues, modes = symbol.reshape(-1)[modes][order], modes[order]
    kdim = int(np.sum(np.abs(eigenvalues) < 1e-5))
    transverse_mask = np.zeros(grid.sizes, dtype=bool)
    transverse_mask.flat[modes[kdim:]] = True
    inverse_symbol = np.zeros(grid.sizes)
    inverse_symbol.flat[modes[kdim:]] = 1.0 / eigenvalues[kdim:]
    n = model.n
    _, singular, vt = np.linalg.svd(metric.wave_vectors)
    rank = int(np.count_nonzero(singular > 1e-10 * singular.max(initial=0.0)))
    moves = np.eye(2 * n + n * n)
    moves[: 2 * n, : 2 * n] = vt.T
    return {
        "symbol": symbol,
        "admissible": admissible,
        "kernel_modes": modes[:kdim],
        "density": model.flat_density(),
        "transverse_mask": transverse_mask,
        "inverse_symbol": inverse_symbol,
        "quotient": np.hstack([moves[:, :rank], moves[:, 3 * n :]]),
        "symmetries": np.hstack([moves[:, rank : 2 * n], moves[:, 2 * n : 3 * n]]),
    }


# ---------------------------------------------------------------------------
# the reduction: leading-order frame-variation potentials


def reduced_basis(ctx: ReductionContext) -> list:
    """The zero-mean kernel modes, volume-normalized, as `H_eval` pairs with
    them: the context's kernel indices but the constant's (index 0)."""
    return _volume_modes(ctx, ctx.kernel_modes[ctx.kernel_modes != 0])


def xi_map(
    ctx: ReductionContext, t: float, direction: np.ndarray, matrix: np.ndarray
) -> ScalarField:
    """Leading-order potential of an infinitesimal frame motion.

    The frame direction acts on the scaled model torus by a rigid unitary
    motion; its Hamiltonian potential, restricted to the torus and rescaled
    by 1/t, is the quadratic moment polynomial evaluated on t times the unit
    model embedding.  Stabilizer directions give exactly zero.  The
    displacement coordinates translate the ambient base point, so the model,
    which moves the torus in its own frame, sees them turned by the frame
    matrix's inverse.

    The model describes motions of an anchored frame (zero displacement
    coordinates); away from the anchor, exponential coordinates mix
    directions through commutators and the exact `variation_potential`
    acquires O(|coords|) corrections relative to this map.
    """
    direction = np.asarray(direction, dtype=float)
    n = ctx.n
    translation = np.linalg.solve(matrix, direction[: 2 * n])
    basis = unitary_algebra_basis(n)
    rotation = np.zeros((n, n), dtype=complex)
    for c, mat in zip(direction[2 * n :], basis):
        rotation = rotation + c * mat
    poly = moment_from_generator(translation=translation, rotation=rotation)
    mesh = ctx.grid.meshgrid()
    z0 = np.stack(
        [ctx.model.radii[j] * np.exp(1j * mesh[j]) for j in range(n)], axis=-1
    )
    # The ambient symplectic form pulls back to t^2 times the chart form
    # dtheta ^ dy, so the chart-Hamiltonian potential of the ambient moment
    # carries a 1/t^2.
    values = poly.evaluate_complex(t * z0) / t**2
    values = np.real(values)
    return ScalarField(ctx.grid, values - np.mean(values), check=False)


def realize_jacobian_fd(metric, frame, step: float = 1e-5) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of `FrameState.realize` over every frame coordinate:
    (d point / dc, d matrix / dc), stacked along the first axis."""
    d_point, d_matrix = [], []
    for i in range(frame.coords.size):
        e = np.zeros(frame.coords.size)
        e[i] = step
        plus, minus = frame.shifted(e).realize(metric), frame.shifted(-e).realize(metric)
        d_point.append((plus.point - minus.point) / (2.0 * step))
        d_matrix.append((plus.matrix - minus.matrix) / (2.0 * step))
    return np.array(d_point), np.array(d_matrix)


@dataclass
class PsiReport:
    """Pairings of frame-variation potentials with the reduced kernel basis.

    Rows are the frame-coordinate axes off the diagonal torus, every
    translation included, since translations span the moment-map kernel
    modes whether or not they fix the metric; Psi uses the exact solved-family
    potentials, psi_leading the moment-map approximation.  stabilizer_norms
    records how close the stabilizer rows are to zero.
    """

    Psi: np.ndarray
    psi_leading: np.ndarray
    condition: float
    stabilizer_norms: np.ndarray


def psi_matrices(ctx: ReductionContext, state: ReductionState) -> PsiReport:
    """Assemble the reduced pairing matrix and its leading-order model."""
    dim = ctx.num_frame_coords
    quotient = np.delete(np.arange(dim), ctx.stabilizer_indices)
    basis = reduced_basis(ctx)
    full_psi = np.zeros((dim, len(basis)))
    full_leading = np.zeros_like(full_psi)
    stabilizer_norms = np.zeros(len(ctx.stabilizer_indices))
    axes = np.eye(dim)
    for i, h in enumerate(variation_potential(ctx, state, axes)):
        lead = xi_map(ctx, state.t, axes[i], state.unitary.matrix)
        full_leading[i] = [ctx.vol_inner(lead, b) for b in basis]
        full_psi[i] = [ctx.vol_inner(h, b) for b in basis]
    for pos, idx in enumerate(ctx.stabilizer_indices):
        stabilizer_norms[pos] = np.linalg.norm(full_psi[idx])
    Psi = full_psi[quotient]
    sing = np.linalg.svd(Psi, compute_uv=False)
    if sing[-1] <= 1e-12 * sing[0]:
        raise RankDeficiencyError(
            "reduced pairing matrix is singular beyond the stabilizer degeneracy "
            f"(singular values {sing})"
        )
    return PsiReport(
        Psi=Psi,
        psi_leading=full_leading[quotient],
        condition=float(sing[0] / sing[-1]),
        stabilizer_norms=stabilizer_norms,
    )


# ---------------------------------------------------------------------------
# Moser flow


class ConstantForm:
    """The constant standard form omega0 (as a form evaluator on points)."""

    def __init__(self, n: int):
        self.n = n
        self.matrix = standard_symplectic_matrix(n)

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points)
        shape = points.shape[:-1] + self.matrix.shape
        return np.broadcast_to(self.matrix, shape).copy()


def refinement_orders(
    form,
    n: int,
    steps_list: Sequence[int] = (8, 16, 32),
    reference_steps: int = 256,
    radius: float = 1.0,
    num_samples: int = 12,
    seed: int = 0,
) -> list[float]:
    """Observed convergence orders of the flow under RK4 step refinement.

    Returns the successive orders log2(e_N / e_2N) of the max trajectory error
    against a fine reference; classical RK4 should give values near 4 (the
    contract asks only >= 3).
    """
    z = ball_samples(2 * n, radius / 2, num_samples, seed)
    ref = flow_map(form, z, reference_steps)
    errs = [float(np.max(np.abs(flow_map(form, z, N) - ref))) for N in steps_list]
    return [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]


def pullback_values(form, points: np.ndarray, images: np.ndarray, steps: int) -> np.ndarray:
    """(phi^1)^* omega at each point, with d phi by central differences, one
    flow per direction and sign.

    images are the points' images under the time-1 map `flow_map(form,
    points, steps)`."""
    z = np.asarray(points, dtype=float)
    d = z.shape[-1]
    jac = np.empty(z.shape[:-1] + (d, d))  # [..., alpha, mu] = d phi^alpha / d z^mu
    for mu in range(d):
        e = np.zeros(d)
        e[mu] = _FD_STEP
        jac[..., :, mu] = (flow_map(form, z + e, steps) - flow_map(form, z - e, steps)) / (
            2 * _FD_STEP
        )
    w = form.value(images)
    return np.einsum("...am,...ab,...bn->...mn", jac, w, jac)


def origin_jacobian(form, n: int, steps: int) -> np.ndarray:
    """d phi^1 at the origin by central differences, one flow per direction
    and sign."""
    d = 2 * n
    jac = np.empty((d, d))
    for mu in range(d):
        e = np.zeros(d)
        e[mu] = _FD_STEP
        jac[:, mu] = (flow_map(form, e, steps) - flow_map(form, -e, steps)) / (2 * _FD_STEP)
    return jac
