"""Reference implementations the tests check the package against.

Each one computes an object the package also computes, or a prediction for
it, by an independent route: Richardson finite differences against the
complex-step Hessian, the ambient moment polynomials against the operator
kernels and the frame-variation potentials, Fourier phase shifts against
frame rotations, and the defining identities of metrics and frames.  None of
them runs in a suite.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from hslag.ambient import ball_samples, unitary_algebra_basis
from hslag.errors import RankDeficiencyError, UnsupportedModelError
from hslag.geomcore import GridDescriptor, Immersion, ScalarField, standard_symplectic_matrix
from hslag.models import CircleSphereModel, TorusModel
from hslag.moser import flow_map
from hslag.operators import GridOperator, assemble_flat_operator, band_limited_basis
from hslag.reduction import ReductionContext, ReductionState, variation_potential
from hslag.weinstein import WeinsteinChart, _graph_jets, graph_volume_and_gradient

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


def graph_immersion(chart: WeinsteinChart, f: ScalarField) -> Immersion:
    """Node immersion theta -> Phi(theta, grad f), validity-gated."""
    *_, coords = _graph_jets(chart, f.grid, f.values)[:3]
    return Immersion(f.grid, coords.real)


# ---------------------------------------------------------------------------
# metrics and frames


def compatibility_defect(values: np.ndarray) -> float:
    """max |J^2 + I| over points, J = -G^{-1} Omega0."""
    d = values.shape[-1]
    om = standard_symplectic_matrix(d // 2)
    J = -np.linalg.solve(values, np.broadcast_to(om, values.shape))
    eye = np.eye(d)
    return float(np.max(np.abs(J @ J + eye)))


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
# operators


def assemble_by_finite_differences(
    chart: WeinsteinChart, grid: GridDescriptor, metric=None, step: float = 1e-4
) -> GridOperator:
    """Richardson-extrapolated central-difference assembly (cross-check path).

    Columns combine central differences at steps h and h/2 to cancel the
    O(h^2) truncation term; used to validate the complex-step assembly.
    """
    nn = grid.num_nodes
    cols = np.empty((nn, nn))
    f = np.zeros(grid.sizes)
    flat = f.reshape(-1)

    def residual():
        _, P = graph_volume_and_gradient(chart, grid, f, metric)
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
    weight = grid.node_weight() * chart.flat_density()
    basis = band_limited_basis(grid)
    cols = basis.T @ cols @ basis
    return GridOperator(grid, cols, weight, basis_matrix=basis).symmetrized(tol=1e-6)


def second_variation_consistency(
    model: TorusModel, f: ScalarField, op=None, step: float = 1e-3
) -> tuple[float, float]:
    """(5-point FD second derivative of Vol along the graph ray, <Lf, f>)."""
    if op is None:
        op = assemble_flat_operator(model)
    chart = WeinsteinChart(model.radii)
    grid = f.grid

    def vol(s: float) -> float:
        v, _ = graph_volume_and_gradient(chart, grid, s * f.values, None, need_gradient=False)
        return float(v.real)

    e = step
    fd2 = (-vol(2 * e) + 16 * vol(e) - 30 * vol(0.0) + 16 * vol(-e) - vol(-2 * e)) / (12 * e * e)
    # The Hessian form lives in L^2 of the model volume measure, i.e. the
    # operator's weight (node weight times the flat density), not the bare
    # coordinate measure used by l2_inner.
    fv = f.values.reshape(-1)
    quad = float(fv @ op.apply(f).values.reshape(-1)) * op.weight
    return fd2, quad


def operator_distance(op_a: GridOperator, op_b: GridOperator) -> float:
    """Spectral-norm distance between two operators on the same grid/basis."""
    diff = op_a.matrix - op_b.matrix
    diff = 0.5 * (diff + diff.T)
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# the reduction: leading-order frame-variation potentials


def xi_map(ctx: ReductionContext, t: float, direction: np.ndarray) -> ScalarField:
    """Leading-order potential of an infinitesimal frame motion.

    The frame direction acts on the scaled model torus by a rigid unitary
    motion; its Hamiltonian potential, restricted to the torus and rescaled
    by 1/t, is the quadratic moment polynomial evaluated on t times the unit
    model embedding.  Stabilizer directions give exactly zero.

    The model describes motions of an anchored frame (zero displacement
    coordinates); away from the anchor, exponential coordinates mix
    directions through commutators and the exact `variation_potential`
    acquires O(|coords|) corrections relative to this map.
    """
    direction = np.asarray(direction, dtype=float)
    n = ctx.n
    translation = np.zeros(2 * n)
    translation[:] = direction[: 2 * n]
    basis = unitary_algebra_basis(n)
    rotation = np.zeros((n, n), dtype=complex)
    for c, mat in zip(direction[2 * n :], basis):
        rotation = rotation + c * mat
    poly = moment_from_generator(translation=translation, rotation=rotation)
    mesh = ctx.grid.meshgrid()
    z0 = np.stack(
        [ctx.chart.radii[j] * np.exp(1j * mesh[j]) for j in range(n)], axis=-1
    )
    # The ambient symplectic form pulls back to t^2 times the chart form
    # dtheta ^ dy, so the chart-Hamiltonian potential of the ambient moment
    # carries a 1/t^2.
    values = poly.evaluate_complex(t * z0) / t**2
    return ScalarField(ctx.grid, ctx.zero_mean(np.real(values)), check=False)


@dataclass
class PsiReport:
    """Pairings of frame-variation potentials with the reduced kernel basis.

    Rows are quotient frame directions; Psi uses the exact solved-family
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
    quotient = ctx.quotient_indices
    full_psi = np.zeros((dim, len(ctx.reduced_basis)))
    full_leading = np.zeros_like(full_psi)
    stabilizer_norms = np.zeros(len(ctx.stabilizer_indices))
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        lead = xi_map(ctx, state.t, e)
        full_leading[i] = [ctx.vol_inner(lead, b) for b in ctx.reduced_basis]
        h = variation_potential(ctx, state, e)
        full_psi[i] = [ctx.vol_inner(h, b) for b in ctx.reduced_basis]
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
