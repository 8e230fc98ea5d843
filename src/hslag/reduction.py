"""Finite-dimensional reduction of the Hamiltonian-stationarity equation.

Given a compatible metric g^t on the symplectic torus that is a size-t
perturbation of the flat one, this module locates Hamiltonian stationary
Lagrangian tori near scaled copies of the model product torus:

1. place a scaled model torus via a unitary frame (point + unitary basis),
2. solve the stationarity equation transverse to the kernel of the flat
   linearized operator by a contraction built from the flat pseudo-inverse,
3. minimize the remaining finite-dimensional reduced volume K over the frame
   variables modulo the diagonal-torus symmetry that fixes the model.

Critical points of K with the transverse equation solved are discretely
Hamiltonian stationary for the full metric; `geometric_residual` certifies
this a posteriori straight from the ambient immersion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.optimize

from .ambient import (
    ChartMetric,
    UnitaryFrame,
    default_perturbed_metric,
    frame_fit,
    unitary_algebra_basis,
    unitary_embedding,
    unitary_frame,
)
from .errors import ExactnessError, HslagError, NonContractionError
from .geomcore import (
    GridDescriptor,
    Immersion,
    ScalarField,
    hs_residual,
    induced_metric,
    l2_inner,
    l2_norm,
    mean_curvature_one_form,
    one_form_l2_norm,
    standard_symplectic_matrix,
    volume_density,
)
from .models import TorusModel
from .operators import (
    SymbolOperator,
    assemble_flat_operator,
    fourier_multiply,
    kernel_dimension,
    mode_mesh,
)
from .weinstein import WeinsteinChart, _graph_jets, graph_volume_and_gradient

__all__ = [
    "SolveSettings",
    "OptimizeSettings",
    "ReductionContext",
    "FrameState",
    "ReductionState",
    "GradientReport",
    "OptimizationResult",
    "SecondVariationReport",
    "build_context",
    "random_frame_state",
    "functional_F",
    "residual_P",
    "projected_solve",
    "H_eval",
    "variation_potential",
    "gradient_K",
    "hessian_K",
    "optimize_frame",
    "geometric_residual",
    "second_variation_Q",
]


# --------------------------------------------------------------------------
# settings and context
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SolveSettings:
    """Parameters of the transverse contraction iteration."""

    tol: float = 1e-12
    max_iterations: int = 200
    divergence_factor: float = 50.0


@dataclass(frozen=True)
class OptimizeSettings:
    """How many saddle kicks the reduced-volume frame optimization may take."""

    max_saddle_restarts: int = 3


# Step of every central difference over frame coordinates: the reduced
# gradient and Hessian, the variation potentials and the cross block.
FRAME_STEP = 1e-4
# Step of the transverse-block stencil along field directions.
FIELD_STEP = 1e-3
# Relative defect above which a recovered potential fails its exactness check.
EXACTNESS_TOL = 1e-6

# optimize_frame: BFGS gradient tolerance and iteration cap, re-anchoring
# (rounds, and the rotation-coordinate norm that triggers one), saddle test
# and kick, and the Newton polish (target gradient, steps, step norm cap,
# eigenvalue floor relative to the largest Hessian eigenvalue).
_BFGS_GTOL = 1e-9
_MAX_BFGS_ITERATIONS = 200
_MAX_ANCHOR_ROUNDS = 4
_ANCHOR_XI_NORM = 1.0
_SADDLE_TOL = 1e-6
_SADDLE_KICK = 0.05
_POLISH_TOL = 1e-9
_MAX_POLISH_STEPS = 6
_MAX_POLISH_STEP_NORM = 1.0
_HESSIAN_EIG_FLOOR = 1e-9


@dataclass
class ReductionContext:
    """Precomputed flat-model data shared by every reduction run.

    The flat linearized operator is a Fourier symbol; only its kernel modes
    get eigenfields.  inverse_symbol (1/lambda, 0 on the kernel and Nyquist
    modes) is the pseudo-inverse that drives the contraction, and the
    zero-mean kernel fields (volume-orthonormalized) index the reduced equation.
    """

    chart: WeinsteinChart
    grid: GridDescriptor
    metric: object
    flat_operator: SymbolOperator
    kernel_fields: List[ScalarField]
    reduced_basis: List[ScalarField]
    kernel_modes: np.ndarray
    inverse_symbol: np.ndarray
    solve: SolveSettings

    @property
    def n(self) -> int:
        return self.chart.n

    @property
    def density(self) -> float:
        return self.chart.flat_density()

    @property
    def num_frame_coords(self) -> int:
        n = self.n
        return 2 * n + n * n

    @property
    def stabilizer_indices(self) -> np.ndarray:
        """Frame coordinates generating the diagonal-torus symmetry G.

        The first n algebra directions are i E_jj; the induced motion of the
        model torus is a reparametrization, so K is constant along them.
        """
        n = self.n
        return np.arange(2 * n, 3 * n)

    @property
    def quotient_indices(self) -> np.ndarray:
        mask = np.ones(self.num_frame_coords, dtype=bool)
        mask[self.stabilizer_indices] = False
        return np.nonzero(mask)[0]

    def vol_inner(self, f: ScalarField, g: ScalarField) -> float:
        return l2_inner(f, g) * self.density

    def vol_norm(self, f: ScalarField) -> float:
        return l2_norm(f) * np.sqrt(self.density)

    def project_transverse(self, f: ScalarField) -> ScalarField:
        """Remove the kernel modes; everything else, Nyquist included, stays."""
        values = fourier_multiply(f.values, ~self.kernel_modes)
        return ScalarField(self.grid, values, check=False)

    def apply_pseudo_inverse(self, values: np.ndarray) -> np.ndarray:
        return fourier_multiply(np.asarray(values, dtype=float), self.inverse_symbol)

    def zero_mean(self, values: np.ndarray) -> np.ndarray:
        return values - np.mean(values)


def build_context(
    radii: Sequence[float] = (1.0, 1.3),
    grid_size: int = 32,
    metric=None,
    solve: Optional[SolveSettings] = None,
) -> ReductionContext:
    """Assemble the shared reduction data for a perturbed torus problem.

    metric None means `default_perturbed_metric` with its defaults."""
    model = TorusModel(tuple(radii), grid_size=grid_size)
    chart = WeinsteinChart(model.radii)
    grid = model.grid()
    if metric is None:
        metric = default_perturbed_metric(model.n)
    operator = assemble_flat_operator(model)
    eigenvalues, modes = operator.sorted_modes()
    kdim = kernel_dimension(eigenvalues)
    kernel = [operator.mode_field(i) for i in modes[:kdim]]
    kernel_modes = np.zeros(grid.sizes, dtype=bool)
    kernel_modes.flat[modes[:kdim]] = True
    inverse_symbol = np.zeros(grid.sizes)
    inverse_symbol.flat[modes[kdim:]] = 1.0 / eigenvalues[kdim:]
    # The kernel fields are single Fourier modes; all but the constant one
    # (mode index 0) have zero mean.
    density = chart.flat_density()
    reduced = [
        ScalarField(grid, b.values / np.sqrt(density), check=False)
        for b, mode in zip(kernel, modes) if mode != 0
    ]
    return ReductionContext(
        chart=chart,
        grid=grid,
        metric=metric,
        flat_operator=operator,
        kernel_fields=kernel,
        reduced_basis=reduced,
        kernel_modes=kernel_modes,
        inverse_symbol=inverse_symbol,
        solve=solve if solve is not None else SolveSettings(),
    )


# --------------------------------------------------------------------------
# frame coordinates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FrameState:
    """A unitary frame parametrized by displacement coordinates.

    coords = (dp, xi): dp in R^{2n} moves the base point along the frame
    columns; xi holds u(n) coefficients (basis `unitary_algebra_basis`) whose
    exponential rotates the frame.  The realized frame is re-fitted to the
    ambient metric, so coordinates stay valid at every t.
    """

    base_point: np.ndarray
    base_matrix: np.ndarray
    coords: np.ndarray

    @classmethod
    def at_frame(cls, frame: UnitaryFrame, num_coords: int) -> "FrameState":
        return cls(
            base_point=np.asarray(frame.point, dtype=float).copy(),
            base_matrix=np.asarray(frame.matrix, dtype=float).copy(),
            coords=np.zeros(num_coords),
        )

    @property
    def n(self) -> int:
        return self.base_point.size // 2

    def displacement(self) -> np.ndarray:
        return self.coords[: 2 * self.n]

    def algebra_element(self) -> np.ndarray:
        n = self.n
        basis = unitary_algebra_basis(n)
        xi = np.zeros((n, n), dtype=complex)
        for c, mat in zip(self.coords[2 * n :], basis):
            xi = xi + c * mat
        return xi

    def xi_norm(self) -> float:
        return float(np.linalg.norm(self.coords[2 * self.n :]))

    def shifted(self, delta: np.ndarray) -> "FrameState":
        return replace(self, coords=self.coords + np.asarray(delta, dtype=float))

    def realize(self, metric) -> UnitaryFrame:
        point = self.base_point + self.base_matrix @ self.displacement()
        rotation = unitary_embedding(scipy.linalg.expm(self.algebra_element()))
        target = self.base_matrix @ rotation
        return frame_fit(metric, point, target)

    def anchored(self, metric) -> "FrameState":
        """Re-root the coordinates at the currently realized frame."""
        frame = self.realize(metric)
        return FrameState.at_frame(frame, self.coords.size)


def random_frame_state(ctx: ReductionContext, seed: int) -> FrameState:
    """A reproducible random anchored frame (random point, random unitary basis).

    The state is anchored (zero displacement coordinates): coordinate axes
    then agree with the group generators exactly, without the commutator
    mixing that displaced exponential coordinates introduce."""
    rng = np.random.default_rng(seed)
    point = rng.uniform(0.0, 2.0 * np.pi, size=2 * ctx.n)
    base = unitary_frame(ctx.metric, point, seed=seed)
    return FrameState.at_frame(base, ctx.num_frame_coords)


# --------------------------------------------------------------------------
# the transverse equation
# --------------------------------------------------------------------------


@dataclass
class ReductionState:
    """A solved transverse configuration at one frame.

    Invariants: the kernel-orthogonal residual norm is at most the solver
    tolerance when converged, and f is L^2-orthogonal to the flat kernel.
    gradient is the unprojected L^2 volume gradient (`residual_P`) that the
    converging iteration computed at (unitary, f), kept so the kernel
    components and the cross block read it instead of recomputing it.

    Warm solves at frames shifted from this one, started from f, are kept in
    a private memo (`_solve_near`): the finite-difference stencils around a
    state share their neighbour solves, and the memo is freed with the state.
    """

    t: float
    frame: FrameState
    unitary: UnitaryFrame
    f: ScalarField
    gradient: ScalarField
    residual_norm: float
    K_value: float
    converged: bool
    iterations: int
    residual_history: Optional[List[float]] = None
    _neighbours: Dict[bytes, "ReductionState"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def kernel_overlap(self, ctx: ReductionContext) -> float:
        return max(abs(l2_inner(self.f, b)) for b in ctx.kernel_fields)


def _chart_metric(ctx: ReductionContext, t: float, unitary: UnitaryFrame) -> ChartMetric:
    return ChartMetric(ctx.metric, unitary, t)


def functional_F(
    ctx: ReductionContext, t: float, unitary: UnitaryFrame, f: ScalarField
) -> float:
    """Chart-scale volume of the graph of df in the frame's scaled metric."""
    vol, _ = graph_volume_and_gradient(
        ctx.chart, ctx.grid, f.values, _chart_metric(ctx, t, unitary), need_gradient=False
    )
    return float(np.real(vol))


def residual_P(
    ctx: ReductionContext, t: float, unitary: UnitaryFrame, f: ScalarField
) -> Tuple[float, ScalarField]:
    """(volume, L^2 gradient of the volume) at the graph of df."""
    vol, grad = graph_volume_and_gradient(
        ctx.chart, ctx.grid, f.values, _chart_metric(ctx, t, unitary)
    )
    return float(np.real(vol)), ScalarField(ctx.grid, np.real(grad), check=False)


def projected_solve(
    ctx: ReductionContext,
    t: float,
    frame: FrameState,
    init: Optional[ScalarField] = None,
) -> ReductionState:
    """Solve the kernel-orthogonal stationarity equation at a fixed frame.

    Iterates f <- f - Linv Pi P^t(f) where Linv is the flat pseudo-inverse and
    Pi projects out the flat kernel.  For metrics t-close to flat this is a
    contraction and converges linearly; geometric divergence raises
    NonContractionError, and so does a residual that stops falling above the
    tolerance (a roundoff floor): three iterations in a row that do not bring
    it 1 % below its smallest earlier value.  Roundoff jitter at a floor
    still makes tiny new minima, hence the 1 %; a solve that gains less per
    step could not gain a digit in the default 200 iterations anyway.
    """
    settings = ctx.solve
    unitary = frame.realize(ctx.metric)
    if init is None:
        f = ScalarField(ctx.grid, np.zeros(ctx.grid.sizes), check=False)
    else:
        f = ctx.project_transverse(init)
    first_norm = None
    history: List[float] = []
    best, stalled = np.inf, 0
    for iteration in range(settings.max_iterations):
        vol, grad = residual_P(ctx, t, unitary, f)
        projected = ctx.project_transverse(grad)
        rnorm = ctx.vol_norm(projected)
        stalled = 0 if rnorm < 0.99 * best else stalled + 1
        best = min(best, rnorm)
        history.append(rnorm)
        if first_norm is None:
            first_norm = rnorm
        if rnorm <= settings.tol:
            return ReductionState(
                t=t,
                frame=frame,
                unitary=unitary,
                f=f,
                gradient=grad,
                residual_norm=rnorm,
                K_value=vol,
                converged=True,
                iterations=iteration + 1,
                residual_history=history,
            )
        if rnorm > settings.divergence_factor * max(first_norm, settings.tol):
            raise NonContractionError(
                f"projected iteration diverged: residual {rnorm:.3e} after "
                f"{iteration + 1} steps from initial {first_norm:.3e}"
            )
        if stalled == 3:
            raise NonContractionError(
                f"projected iteration stagnated at a residual floor of {best:.3e} "
                f"above tol={settings.tol:.1e}: no 1 % drop in 3 iterations"
            )
        update = ctx.apply_pseudo_inverse(projected.values)
        f = ctx.project_transverse(
            ScalarField(ctx.grid, f.values - update, check=False)
        )
    raise NonContractionError(
        f"projected iteration did not reach tol={settings.tol:.1e} within "
        f"{settings.max_iterations} iterations (last residual {rnorm:.3e})"
    )


def H_eval(ctx: ReductionContext, state: ReductionState) -> np.ndarray:
    """Kernel components of the residual at a solved state.

    The residual gradient has exactly zero grid mean (it is a divergence), so
    only the zero-mean kernel directions carry data.
    """
    grad = state.gradient
    mean = abs(float(np.mean(grad.values)))
    if mean > 1e-9:
        raise HslagError(
            f"residual gradient acquired a mean component {mean:.3e}; "
            "the volume gradient must be mean-free"
        )
    return np.array([ctx.vol_inner(grad, b) for b in ctx.reduced_basis])


# --------------------------------------------------------------------------
# frame variations: potentials
# --------------------------------------------------------------------------


def _ambient_immersion(
    ctx: ReductionContext, t: float, unitary: UnitaryFrame, f: ScalarField
) -> np.ndarray:
    """Node coordinates of the ambient torus p + t * (frame @ graph)."""
    chart_coords = _graph_jets(ctx.chart, ctx.grid, f.values)[2]
    return unitary.point + t * (np.real(chart_coords) @ unitary.matrix.T)


def variation_potential(
    ctx: ReductionContext,
    state: ReductionState,
    direction: np.ndarray,
) -> ScalarField:
    """Chart-Hamiltonian potential of the solved-family variation along a direction.

    Differentiates the ambient immersion (with f solved at the shifted frames
    through the state's memo, so a frame the finite-difference gradient
    already solved is shared, not re-solved), pairs with the symplectic form
    to get a one-form on the torus,
    and integrates it to a zero-mean potential via a spectral Poisson solve.
    The potential is normalized against the chart symplectic form (ambient
    pairing / t^2), which makes dK(e) = <potential, residual gradient> hold
    with unit coefficient.  The integration is certified: if the recovered
    potential fails to differentiate back to the one-form, ExactnessError is
    raised.
    """
    direction = np.asarray(direction, dtype=float)
    step = FRAME_STEP * direction
    plus = _solve_near(ctx, state, step)
    minus = _solve_near(ctx, state, -step)
    amb_plus = _ambient_immersion(ctx, state.t, plus.unitary, plus.f)
    amb_minus = _ambient_immersion(ctx, state.t, minus.unitary, minus.f)
    velocity = (amb_plus - amb_minus) / (2.0 * FRAME_STEP)

    jets = _graph_jets(ctx.chart, ctx.grid, state.f.values)
    tangents = np.real(jets[7])  # (*grid, n, 2n), chart coordinates
    frame_tangents = np.einsum("nm,...am->...an", state.unitary.matrix, tangents)
    omega = standard_symplectic_matrix(ctx.n)
    # ambient tangents are t * frame_tangents; with the 1/t^2 chart
    # normalization one factor 1/t survives.
    beta = (
        np.einsum("...k,kl,...al->...a", velocity, omega, frame_tangents) / state.t
    )

    values = _integrate_exact_one_form(ctx, beta)
    return ScalarField(ctx.grid, values, check=False)


def _integrate_exact_one_form(ctx: ReductionContext, beta: np.ndarray) -> np.ndarray:
    """Zero-mean h with dh = beta, via Fourier division; certified afterwards."""
    from .geomcore import _deriv_array

    grid = ctx.grid
    n = grid.dim
    radii_sq = np.array([a * a for a in ctx.chart.radii])
    # zero the Nyquist wave numbers to match the Nyquist-free derivative
    mesh = [
        np.where(np.abs(k) < size / 2, k, 0.0) for k, size in zip(mode_mesh(grid), grid.sizes)
    ]
    den = sum(mesh[a] ** 2 / radii_sq[a] for a in range(n))
    den = np.where(den == 0.0, 1.0, den)
    num = np.zeros(grid.sizes, dtype=complex)
    for a in range(n):
        num -= (1j * mesh[a] / radii_sq[a]) * np.fft.fftn(beta[..., a])
    hat = num / den
    hat[(0,) * n] = 0.0
    values = np.real(np.fft.ifftn(hat))
    values = values - np.mean(values)

    scale = max(1.0, float(np.max(np.abs(beta))))
    worst = 0.0
    for a in range(n):
        defect = _deriv_array(values, grid, axis=a) - beta[..., a]
        worst = max(worst, float(np.max(np.abs(defect))))
    if worst > EXACTNESS_TOL * scale:
        raise ExactnessError(
            f"variation one-form is not exact: potential recovery defect "
            f"{worst:.3e} exceeds {EXACTNESS_TOL:.1e} (scale {scale:.3e})"
        )
    return values


# --------------------------------------------------------------------------
# the reduced gradient
# --------------------------------------------------------------------------


@dataclass
class GradientReport:
    """Two independent evaluations of dK at a frame.

    fd differentiates the solved K directly; factored assembles the same
    gradient as the pairing of frame-variation potentials with the kernel
    residual components.  Agreement is the correctness certificate of the
    reduction."""

    fd: np.ndarray
    factored: np.ndarray
    kernel_components: np.ndarray
    stabilizer_fd: np.ndarray
    stabilizer_factored: np.ndarray


def _solve_near(ctx: ReductionContext, state: ReductionState, delta: np.ndarray) -> ReductionState:
    """Warm solve at the state's frame shifted by delta, memoized on the state.

    The key is the shifted coordinates, not delta: -e carries -0.0 where +e
    carries +0.0, and both must find the frame they shift to."""
    frame = state.frame.shifted(delta)
    key = frame.coords.tobytes()
    near = state._neighbours.get(key)
    if near is None:
        near = projected_solve(ctx, state.t, frame, init=state.f)
        state._neighbours[key] = near
    return near


def _fd_gradient(
    ctx: ReductionContext, state: ReductionState, indices: np.ndarray
) -> np.ndarray:
    """Central differences of the solved K over the given frame coordinates."""
    grad = np.zeros(indices.size)
    for pos, idx in enumerate(indices):
        e = np.zeros(ctx.num_frame_coords)
        e[idx] = FRAME_STEP
        plus = _solve_near(ctx, state, e).K_value
        minus = _solve_near(ctx, state, -e).K_value
        grad[pos] = (plus - minus) / (2.0 * FRAME_STEP)
    return grad


def gradient_K(ctx: ReductionContext, state: ReductionState) -> GradientReport:
    """Gradient of the reduced volume over all frame coordinates, twice."""
    dim = ctx.num_frame_coords
    fd = _fd_gradient(ctx, state, np.arange(dim))
    H = H_eval(ctx, state)
    factored = np.zeros(dim)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        h = variation_potential(ctx, state, e)
        factored[i] = np.dot([ctx.vol_inner(h, b) for b in ctx.reduced_basis], H)
    stab = ctx.stabilizer_indices
    return GradientReport(
        fd=fd,
        factored=factored,
        kernel_components=H,
        stabilizer_fd=fd[stab],
        stabilizer_factored=factored[stab],
    )


# --------------------------------------------------------------------------
# frame optimization
# --------------------------------------------------------------------------


def _frozen_F(ctx: ReductionContext, t: float, frame: FrameState, f: ScalarField) -> float:
    return functional_F(ctx, t, frame.realize(ctx.metric), f)


def _envelope_gradient(
    ctx: ReductionContext,
    t: float,
    frame: FrameState,
    f: ScalarField,
    indices: np.ndarray,
) -> np.ndarray:
    """dK over selected coordinates with f frozen at the solved transverse state.

    At a solved state the transverse derivative of F vanishes against the
    f-variation, so freezing f changes the frame gradient only at second
    order in the solver tolerance."""
    grad = np.zeros(indices.size)
    for pos, idx in enumerate(indices):
        e = np.zeros(ctx.num_frame_coords)
        e[idx] = FRAME_STEP
        plus = _frozen_F(ctx, t, frame.shifted(e), f)
        minus = _frozen_F(ctx, t, frame.shifted(-e), f)
        grad[pos] = (plus - minus) / (2.0 * FRAME_STEP)
    return grad


def hessian_K(ctx: ReductionContext, state: ReductionState) -> np.ndarray:
    """Finite-difference Hessian of the solved K over quotient coordinates.

    Five-point second differences on the diagonal, four-corner stencils off
    the diagonal; every evaluation solves the transverse equation (warm
    started), so this is the Hessian of the true reduced functional.  The
    neighbour solves go through the state's memo, so the +-FRAME_STEP frames
    are shared with the gradient stencils and the cross block, not re-solved."""
    indices = ctx.quotient_indices
    m = indices.size
    dim = ctx.num_frame_coords
    K0 = state.K_value
    hess = np.zeros((m, m))

    def K_at(delta: np.ndarray) -> float:
        return _solve_near(ctx, state, delta).K_value

    for a in range(m):
        e = np.zeros(dim)
        e[indices[a]] = FRAME_STEP
        k_p1, k_m1 = K_at(e), K_at(-e)
        k_p2, k_m2 = K_at(2 * e), K_at(-2 * e)
        hess[a, a] = (
            -k_p2 + 16.0 * k_p1 - 30.0 * K0 + 16.0 * k_m1 - k_m2
        ) / (12.0 * FRAME_STEP**2)
    for a in range(m):
        for b in range(a + 1, m):
            ea = np.zeros(dim)
            eb = np.zeros(dim)
            ea[indices[a]] = FRAME_STEP
            eb[indices[b]] = FRAME_STEP
            val = (
                K_at(ea + eb) - K_at(ea - eb) - K_at(-ea + eb) + K_at(-ea - eb)
            ) / (4.0 * FRAME_STEP**2)
            hess[a, b] = val
            hess[b, a] = val
    return hess


@dataclass
class OptimizationResult:
    """Outcome of a reduced-volume frame search."""

    state: ReductionState
    gradient_norm: float
    stabilizer_gradient_norm: float
    hessian: np.ndarray
    hessian_eigenvalues: np.ndarray
    is_minimum: bool
    saddle_restarts: int
    anchor_rounds: int
    residual_relative: float
    residual_absolute: float
    solver_evaluations: int
    trace: Optional[List[dict]] = None


def _is_saddle(eigenvalue: float, K: float) -> bool:
    """Whether a Hessian eigenvalue of K is a descent direction, not noise.

    The five-point second difference weighs the values by
    (-1, 16, -30, 16, -1) / (12 FRAME_STEP^2), so a roundoff of eps |K| in
    each solved K moves a diagonal entry by up to
    (64/12) eps |K| / FRAME_STEP^2; an eigenvalue counts as negative only
    below minus the larger of the saddle tolerance and that noise."""
    noise = 64.0 / 12.0 * np.finfo(float).eps * abs(K) / FRAME_STEP**2
    return bool(eigenvalue < -max(_SADDLE_TOL, noise))


def optimize_frame(
    ctx: ReductionContext,
    t: float,
    init: FrameState,
    settings: Optional[OptimizeSettings] = None,
) -> OptimizationResult:
    """Minimize the reduced volume over the frame quotient.

    BFGS over the six quotient coordinates with the envelope gradient (frame
    derivative of F at the frozen transverse solution); re-anchors whenever
    the rotation coordinates leave the trust region of the exponential chart;
    classifies the critical point by the finite-difference Hessian and kicks
    off saddles along their most negative direction."""
    settings = settings if settings is not None else OptimizeSettings()
    quotient = ctx.quotient_indices
    dim = ctx.num_frame_coords
    evaluations = 0
    anchor_rounds = 0
    saddle_restarts = 0
    frame = init
    trace: List[dict] = []

    def lift(y: np.ndarray) -> np.ndarray:
        delta = np.zeros(dim)
        delta[quotient] = y
        return delta

    def run_bfgs(anchor: FrameState) -> Tuple[FrameState, ReductionState]:
        nonlocal evaluations
        cache: Dict[bytes, Tuple[float, np.ndarray, ReductionState]] = {}
        warm: List[Optional[ScalarField]] = [None]

        def evaluate(y: np.ndarray) -> Tuple[float, np.ndarray, ReductionState]:
            key = np.asarray(y, dtype=float).tobytes()
            if key in cache:
                return cache[key]
            nonlocal evaluations
            fs = anchor.shifted(lift(y))
            st = projected_solve(ctx, t, fs, init=warm[0])
            warm[0] = st.f
            evaluations += 1
            grad = _envelope_gradient(ctx, t, fs, st.f, quotient)
            cache[key] = (st.K_value, grad, st)
            trace.append(
                {
                    "step": len(trace),
                    "phase": "search",
                    "K": float(st.K_value),
                    "residual_norm": float(st.residual_norm),
                    "gradient_norm": float(np.linalg.norm(grad)),
                }
            )
            return cache[key]

        result = scipy.optimize.minimize(
            lambda y: evaluate(y)[:2],
            np.zeros(quotient.size),
            jac=True,
            method="BFGS",
            options={"gtol": _BFGS_GTOL, "maxiter": _MAX_BFGS_ITERATIONS},
        )
        _, _, final_state = evaluate(result.x)
        return anchor.shifted(lift(result.x)), final_state

    state: Optional[ReductionState] = None
    for anchor_rounds in range(1, _MAX_ANCHOR_ROUNDS + 1):
        frame, state = run_bfgs(frame.anchored(ctx.metric))
        if frame.xi_norm() <= _ANCHOR_XI_NORM:
            break

    while True:
        hess = hessian_K(ctx, state)
        eigs, vecs = np.linalg.eigh(hess)
        if (
            not _is_saddle(eigs[0], state.K_value)
            or saddle_restarts >= settings.max_saddle_restarts
        ):
            break
        saddle_restarts += 1
        kick = _SADDLE_KICK * lift(vecs[:, 0])
        frame = frame.shifted(kick).anchored(ctx.metric)
        frame, state = run_bfgs(frame)

    # Newton polish: along soft Hessian directions the line search stalls once
    # volume differences drop under floating-point resolution, but the solved
    # gradient stays measurable (each evaluation sits at a transverse critical
    # point), so Newton steps with the finite-difference Hessian still converge.
    # A curvature below the Hessian's finite-difference noise overshoots, so a
    # step that raises the solved gradient is discarded and the softest
    # direction still in use leaves the Newton step.
    def quotient_gradient(st: ReductionState) -> np.ndarray:
        nonlocal evaluations
        evaluations += 2 * quotient.size
        return _fd_gradient(ctx, st, quotient)

    grad = quotient_gradient(state)
    floor = _HESSIAN_EIG_FLOOR * max(1.0, float(np.max(np.abs(eigs))))
    active = np.ones(eigs.size, dtype=bool)
    for _ in range(_MAX_POLISH_STEPS):
        if np.linalg.norm(grad) <= _POLISH_TOL or not active.any():
            break
        coeffs = vecs[:, active].T @ grad
        step = -vecs[:, active] @ (coeffs / np.maximum(eigs[active], floor))
        norm = float(np.linalg.norm(step))
        if norm > _MAX_POLISH_STEP_NORM:
            step *= _MAX_POLISH_STEP_NORM / norm
        candidate_frame = frame.shifted(lift(step))
        candidate = projected_solve(ctx, t, candidate_frame, init=state.f)
        evaluations += 1
        halvings = 0
        while (
            candidate.K_value > state.K_value + 1e-13 * abs(state.K_value)
            and halvings < 5
        ):
            step = 0.5 * step
            candidate_frame = frame.shifted(lift(step))
            candidate = projected_solve(ctx, t, candidate_frame, init=state.f)
            evaluations += 1
            halvings += 1
        candidate_grad = quotient_gradient(candidate)
        if np.linalg.norm(candidate_grad) >= np.linalg.norm(grad):
            active[np.argmax(active)] = False
            continue
        frame, state, grad = candidate_frame, candidate, candidate_grad
        trace.append(
            {
                "step": len(trace),
                "phase": "polish",
                "K": float(state.K_value),
                "residual_norm": float(state.residual_norm),
                "gradient_norm": float(np.linalg.norm(grad)),
            }
        )

    report = gradient_K(ctx, state)
    grad_norm = float(np.linalg.norm(report.fd[quotient]))
    stab_norm = float(np.linalg.norm(report.stabilizer_fd))
    rel, absolute, _ = geometric_residual(ctx, state)
    return OptimizationResult(
        state=state,
        gradient_norm=grad_norm,
        stabilizer_gradient_norm=stab_norm,
        hessian=hess,
        hessian_eigenvalues=eigs,
        is_minimum=not _is_saddle(eigs[0], state.K_value),
        saddle_restarts=saddle_restarts,
        anchor_rounds=anchor_rounds,
        residual_relative=rel,
        residual_absolute=absolute,
        solver_evaluations=evaluations,
        trace=trace,
    )


def geometric_residual(
    ctx: ReductionContext, state: ReductionState
) -> Tuple[float, float, float]:
    """Stationarity defect of the ambient immersion in the full metric.

    Returns (relative, absolute, mean_curvature_norm): the L^2 norm of the
    codifferential of the mean-curvature one-form against its own norm,
    measured with the induced volume density.  This certificate never touches
    the reduction machinery."""
    coords = _ambient_immersion(ctx, state.t, state.unitary, state.f)
    imm = Immersion(ctx.grid, coords)
    defect = hs_residual(imm, ctx.metric)
    h = induced_metric(imm, ctx.metric)
    alpha = mean_curvature_one_form(imm, ctx.metric)
    alpha_norm = one_form_l2_norm(alpha, h)
    defect_norm = l2_norm(defect, density=volume_density(h))
    return defect_norm / alpha_norm, defect_norm, alpha_norm


# --------------------------------------------------------------------------
# second variation at a located torus
# --------------------------------------------------------------------------


@dataclass
class SecondVariationReport:
    """Blocks of the volume Hessian at a located stationary torus.

    transverse_* compare finite differences of the full functional along
    kernel-orthogonal field directions with the flat quadratic form (both in
    ambient scale, i.e. multiplied by t^n); frame_block is the reduced
    Hessian; cross_* measure the mixed block, which vanishes at leading
    order."""

    transverse_fd: np.ndarray
    transverse_model: np.ndarray
    transverse_relative_error: float
    frame_block: np.ndarray
    frame_eigenvalues: np.ndarray
    cross_block: np.ndarray
    cross_relative: float


def _field_directions(ctx: ReductionContext) -> List[ScalarField]:
    """Three volume-normalized kernel-orthogonal modes for the transverse block."""
    mesh = ctx.grid.meshgrid()
    raw = [
        np.cos(2.0 * mesh[0]),
        np.cos(mesh[0] + mesh[1]),
        np.sin(2.0 * mesh[1]),
    ]
    out = []
    for vals in raw:
        fld = ctx.project_transverse(ScalarField(ctx.grid, vals, check=False))
        out.append(ScalarField(ctx.grid, fld.values / ctx.vol_norm(fld), check=False))
    return out


def second_variation_Q(
    ctx: ReductionContext,
    state: ReductionState,
    frame_block: Optional[np.ndarray] = None,
) -> SecondVariationReport:
    """Assemble the three Hessian blocks at a solved critical frame.

    frame_block is the reduced Hessian when the caller already has it
    (`optimize_frame` returns it); None computes it with `hessian_K`."""
    field_directions = _field_directions(ctx)
    t = state.t
    tn = t**ctx.n
    scale = tn

    transverse_fd = np.zeros(len(field_directions))
    transverse_model = np.zeros(len(field_directions))
    for i, direction in enumerate(field_directions):
        values = []
        for s in (-2, -1, 0, 1, 2):
            if s == 0:
                # the centre is the solved state, whose volume K_value holds
                values.append(state.K_value)
                continue
            f = ScalarField(
                ctx.grid, state.f.values + s * FIELD_STEP * direction.values, check=False
            )
            values.append(functional_F(ctx, t, state.unitary, f))
        second = (
            -values[4] + 16.0 * values[3] - 30.0 * values[2] + 16.0 * values[1] - values[0]
        ) / (12.0 * FIELD_STEP**2)
        transverse_fd[i] = scale * second
        lf = ctx.flat_operator.apply(direction)
        transverse_model[i] = scale * ctx.vol_inner(direction, lf)
    rel_err = float(
        np.max(
            np.abs(transverse_fd - transverse_model)
            / np.maximum(np.abs(transverse_model), 1e-12)
        )
    )

    if frame_block is None:
        frame_block = hessian_K(ctx, state)
    frame_block = scale * np.asarray(frame_block)
    frame_eigs = np.linalg.eigvalsh(frame_block)

    quotient = ctx.quotient_indices
    cross = np.zeros((len(field_directions), quotient.size))
    for j, idx in enumerate(quotient):
        e = np.zeros(ctx.num_frame_coords)
        e[idx] = FRAME_STEP
        plus = _solve_near(ctx, state, e)
        minus = _solve_near(ctx, state, -e)
        for i, direction in enumerate(field_directions):
            pair_plus = ctx.vol_inner(plus.gradient, direction)
            pair_minus = ctx.vol_inner(minus.gradient, direction)
            cross[i, j] = scale * (pair_plus - pair_minus) / (2.0 * FRAME_STEP)
    diag_scale = np.sqrt(
        np.abs(transverse_fd)[:, None] * np.abs(np.diag(frame_block))[None, :]
    )
    cross_rel = float(np.max(np.abs(cross) / np.maximum(diag_scale, 1e-12)))

    return SecondVariationReport(
        transverse_fd=transverse_fd,
        transverse_model=transverse_model,
        transverse_relative_error=rel_err,
        frame_block=frame_block,
        frame_eigenvalues=frame_eigs,
        cross_block=cross,
        cross_relative=cross_rel,
    )
