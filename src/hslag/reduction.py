"""Finite-dimensional reduction of the Hamiltonian-stationarity equation.

Given a compatible metric g^t on the symplectic torus that is a size-t
perturbation of the flat one, this module locates Hamiltonian stationary
Lagrangian tori near scaled copies of the model product torus:

1. place a scaled model torus via a unitary frame (point + unitary basis),
2. solve the stationarity equation transverse to the kernel of the flat
   linearized operator by a contraction built from the flat pseudo-inverse,
3. minimize the remaining finite-dimensional reduced volume K over the frame
   variables modulo its symmetries (the diagonal torus that fixes the model
   and the ambient translations that fix the metric) by a trust-region search
   on a quadratic model of K.

Critical points of K with the transverse equation solved are discretely
Hamiltonian stationary for the full metric; `geometric_residual` certifies
this a posteriori straight from the ambient immersion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    _COMPLEX_STEP,
    GridDescriptor,
    Immersion,
    ScalarField,
    _forward,
    _inverse,
    derivative_multipliers,
    hs_residual,
    l2_inner,
    l2_norm,
    spectral_gradient,
    standard_symplectic_matrix,
)
from .models import TorusModel
from .operators import SymbolOperator, _unit_modes, assemble_flat_operator, kernel_dimension
from .weinstein import _chart_points, _graph_jets, graph_volume_and_gradient

__all__ = [
    "OptimizeSettings",
    "ReductionContext",
    "FrameState",
    "ReductionState",
    "GradientReport",
    "OptimizationResult",
    "SecondVariationReport",
    "build_context",
    "random_frame_state",
    "projected_solve",
    "H_eval",
    "variation_potential",
    "frame_gradient",
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
class OptimizeSettings:
    """How many times the frame search may escape a saddle: at a critical
    point whose Hessian has a descent direction, restart the search along it."""

    max_saddle_restarts: int = 3


# The transverse contraction: its residual tolerance, its iteration cap, and
# the growth over the first residual at which it counts as diverged.
SOLVE_TOL = 1e-12
# The contraction also stops when its update u = Linv Pi P(f) has volume norm
# at most UPDATE_TOL.  With contraction factor q (about 0.36 t, so at most
# 0.04 for t <= 0.1), the a posteriori bound |f - f*| <= |u| / (1 - q) puts f
# within 1.05e-16 of the fixed point, closer than the residual test's
# SOLVE_TOL / (lambda_min (1 - q)): 4e-13 at radii (1, 1.3), lambda_min 2.37,
# and 1.1e-12 at (1, 1.3, 1.6), lambda_min 0.92.  The residual's roundoff
# floor grows with the grid (P holds second derivatives: 1.0e-12 at grid 64
# at the located `reduce --seed 1` torus); the update's, damped by about
# |k|^-4, stays at 2e-17 to 5e-17 at grids 32-128, so the update test ends
# the solves at grid 64 and above.  It can end a solve before the residual
# test only when the residual sits on modes whose symbol exceeds
# SOLVE_TOL / UPDATE_TOL = 1e4, the top of the grid-24 band: over 2220
# grid-24 cold solves (the benchmark's transverse workload, 37 seeds) the
# smallest update at a residual above SOLVE_TOL was 9.1e-16.
UPDATE_TOL = 1e-16
_MAX_SOLVE_ITERATIONS = 200
_DIVERGENCE_FACTOR = 50.0
# Step of every central difference over frame coordinates: the reduced
# Hessian, the variation potentials, the cross block and `gradient_K`'s fd.
FRAME_STEP = 1e-4
# Step of the transverse block along field directions.  Its error is a
# truncation term, O(eps^3) and seen here to fall as eps^4, plus the volume's
# roundoff amplified by about 8 / eps^2.  Against the complex-step Hessian-
# vector product the largest relative errors read, at steps 3e-3, 1e-2 and
# 2e-2: 1.7e-9, 7.4e-10 and 1.1e-8 on located n = 2 tori at grids 24 and 32
# (2e-2 is truncation), and 3.6e-8, 2.5e-9 and 4e-10 on solved n = 3 states
# at grid 16 (3e-3 is roundoff).  1e-2 has the smallest worst case.
FIELD_STEP = 1e-2
# Relative defect above which a recovered potential fails its exactness check.
EXACTNESS_TOL = 1e-6

# The frame search (`_descend`): its radius never exceeds _ANCHOR_XI_NORM,
# the region in which the exponential chart is trusted, and it re-anchors
# once the rotation coordinates leave it.  A step whose predicted decrease is
# under K's roundoff, _K_ROUNDOFF relative, is judged by |dK| instead of K.
# A saddle needs a Hessian eigenvalue below -_SADDLE_TOL, above the Hessian's
# noise SOLVE_TOL / FRAME_STEP = 1e-8 (see `hessian_K`).
_ANCHOR_XI_NORM = 1.0
_POLISH_TOL = 1e-9
_MAX_SEARCH_SOLVES = 100
_K_ROUNDOFF = 1e-13
_SADDLE_TOL = max(1e-6, SOLVE_TOL / FRAME_STEP)


@dataclass
class ReductionContext:
    """Precomputed data around the model torus, shared by every reduction run.

    The flat linearized operator is a Fourier symbol and its kernel a set of
    modes: kernel_modes, flat `mode_mesh` indices in `sorted_modes` order,
    whose fields each reader evaluates (`_volume_modes`); all but index 0
    have zero mean and index the reduced equation.  inverse_symbol (1/lambda
    on the band modes off the kernel, 0 elsewhere) drives the contraction,
    and its support holds the transverse fields, residuals and updates.

    quotient and symmetries split the frame coordinates into two constant
    orthonormal bases (columns).  K is constant along symmetries in exact
    arithmetic (shifts of up to 1e-4 moved the solved K by -3 to +29 ulps
    at the located n = 2 torus, an even term): the translations along the
    null space of the metric's wave vectors, and the diagonal torus (the
    rows of quotient at `stabilizer_indices` are exact zeros).  The search
    moves along quotient: the wave vectors' row space and the off-diagonal
    u(n) axes (5 columns at n = 2 and 9 at n = 3 for three independent
    waves).
    """

    model: TorusModel
    metric: object
    flat_operator: SymbolOperator
    kernel_modes: np.ndarray
    inverse_symbol: np.ndarray
    quotient: np.ndarray
    symmetries: np.ndarray

    @property
    def grid(self) -> GridDescriptor:
        return self.model.grid()

    @property
    def n(self) -> int:
        return self.model.n

    @property
    def density(self) -> float:
        return self.model.flat_density()

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

    def vol_inner(self, f: ScalarField, g: ScalarField) -> float:
        return l2_inner(f, g) * self.density

    def vol_norm(self, f: ScalarField) -> float:
        return l2_norm(f) * np.sqrt(self.density)

    def vol_pairings(
        self, fields: Sequence[ScalarField], others: Sequence[ScalarField]
    ) -> np.ndarray:
        """`vol_inner` of each of fields with each of others,
        [len(fields), len(others)], as one matrix product over the nodes."""
        rows = np.array([f.values.reshape(-1) for f in fields])
        columns = np.array([g.values.reshape(-1) for g in others])
        return (rows @ columns.T) * (self.grid.node_weight() * self.density)


def build_context(model: TorusModel, metric=None) -> ReductionContext:
    """Assemble the shared reduction data for a perturbed torus problem.

    metric None means `default_perturbed_metric` with its defaults."""
    grid = model.grid()
    if metric is None:
        metric = default_perturbed_metric(model.n)
    operator = assemble_flat_operator(model)
    eigenvalues, modes = operator.sorted_modes()
    kdim = kernel_dimension(eigenvalues)
    inverse_symbol = np.zeros(grid.sizes)
    inverse_symbol.flat[modes[kdim:]] = 1.0 / eigenvalues[kdim:]
    # Displacement axes: the wave vectors' row space, then their null space.
    n = model.n
    _, singular, vt = np.linalg.svd(metric.wave_vectors)
    rank = int(np.count_nonzero(singular > 1e-10 * singular.max(initial=0.0)))
    moves = np.eye(2 * n + n * n)
    moves[: 2 * n, : 2 * n] = vt.T
    return ReductionContext(
        model=model,
        metric=metric,
        flat_operator=operator,
        kernel_modes=modes[:kdim],
        inverse_symbol=inverse_symbol,
        quotient=np.hstack([moves[:, :rank], moves[:, 3 * n :]]),
        symmetries=np.hstack([moves[:, rank : 2 * n], moves[:, 2 * n : 3 * n]]),
    )


# --------------------------------------------------------------------------
# frame coordinates
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _algebra_embedding(n: int) -> np.ndarray:
    """The real embeddings of the `unitary_algebra_basis`, [n^2, 2n, 2n];
    built once per n and shared, so read-only."""
    basis = np.array([unitary_embedding(m) for m in unitary_algebra_basis(n)])
    basis.flags.writeable = False
    return basis


def _expm(generators: np.ndarray) -> np.ndarray:
    """The matrix exponential of each matrix of a stack [..., d, d].

    Scaling and squaring: each matrix is halved s times, the fewest that
    bring the 1-norm of its real part to 1 or below, its degree-18 Taylor
    polynomial is summed by Horner's rule, and the result is squared s
    times.  The Taylor remainder after degree 18 is below 1/19! * 20/19,
    about 9e-18, at norm 1.  s comes from the real part alone, so a
    complex-step perturbation never changes it: the result is one
    polynomial in the perturbation, and its imaginary part is the exact
    Frechet derivative.  Each matrix gets its own s, so a stack gives each
    matrix what it gives alone."""
    A = np.asarray(generators)
    norms = np.max(np.sum(np.abs(A.real), axis=-2), axis=-1)
    s = np.ceil(np.log2(np.maximum(norms, 1.0))).astype(int)
    A = A / (2.0**s)[..., None, None]
    eye = np.eye(A.shape[-1])
    E = eye + A / 18.0
    for k in range(17, 0, -1):
        E = eye + (A @ E) / k
    for j in range(int(s.max(initial=0))):
        squared = s > j
        E[squared] = E[squared] @ E[squared]
    return E


@dataclass(frozen=True)
class FrameState:
    """A unitary frame parametrized by displacement coordinates.

    coords = (dp, xi): dp in R^{2n} translates the ambient base point; xi
    holds u(n) coefficients (basis `unitary_algebra_basis`) whose
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

    def xi_norm(self) -> float:
        return float(np.linalg.norm(self.coords[2 * self.n :]))

    def shifted(self, delta: np.ndarray) -> "FrameState":
        return replace(self, coords=self.coords + np.asarray(delta, dtype=float))

    def realize(self, metric) -> UnitaryFrame:
        """The frame at these coordinates, or the stack of frames when coords
        has leading axes: one `_expm` over the stacked generators and one
        `frame_fit`, whose metric evaluation takes every point at once.

        The rotation is the exponential of the real embedding of the u(n)
        element, so complex coordinates give the complex-analytic
        continuation of the frame, which `_realize_jacobian` differentiates
        by complex step."""
        n = self.n
        point = self.base_point + self.coords[..., : 2 * n]
        generator = np.tensordot(self.coords[..., 2 * n :], _algebra_embedding(n), axes=1)
        target = self.base_matrix @ _expm(generator)
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

    Invariants: when converged, the transverse residual norm is at most
    SOLVE_TOL or the norm of the update it gives at most UPDATE_TOL (see
    `projected_solve`), and f lies on the band modes off the flat kernel.
    gradient holds the grid values of the unprojected L^2 volume gradient
    whose spectrum the converging iteration's `graph_volume_and_gradient`
    returned at (unitary, f), kept so the kernel components and the cross
    block read it instead of recomputing it.
    frame_sensitivity is the same call's pair (dvol/db, dvol/dA), the
    volume's derivatives under an affine move of the chart metric (see
    `graph_volume_and_gradient`): O(n^2) floats from which `frame_gradient`
    forms the exact reduced gradient without another volume.

    Warm solves at frames shifted from this one, started from f or from the
    reflection through an opposite neighbour, are kept in a private memo
    that `_solve_stencil` owns: the finite-difference stencils around a
    state share their neighbour solves, and the memo is freed with the
    state.
    """

    t: float
    frame: FrameState
    unitary: UnitaryFrame
    f: ScalarField
    gradient: ScalarField
    frame_sensitivity: Tuple[np.ndarray, np.ndarray]
    residual_norm: float
    K_value: float
    converged: bool
    iterations: int
    residual_history: List[float]
    _neighbours: Dict[bytes, "ReductionState"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def kernel_overlap(self, ctx: ReductionContext) -> float:
        kernel = _unit_modes(ctx.grid, ctx.kernel_modes)
        return max(abs(l2_inner(self.f, ScalarField(ctx.grid, b, check=False))) for b in kernel)


def projected_solve(
    ctx: ReductionContext,
    t: float,
    frame: FrameState,
    init: Optional[ScalarField] = None,
    *,
    unitary: Optional[UnitaryFrame] = None,
) -> ReductionState:
    """Solve the kernel-orthogonal stationarity equation at a fixed frame.

    Iterates f <- f - Linv Pi P^t(f) where Linv is the flat pseudo-inverse and
    Pi projects onto the band modes off the flat kernel, the modes Linv
    inverts, so f and the tested residual share one band and every residual
    mode is one an update can reduce.  For metrics t-close to flat this is a
    contraction and converges linearly.  It stops when the residual's volume
    norm is at most SOLVE_TOL or the update's is at most UPDATE_TOL (the
    bound that does not grow with the grid; see UPDATE_TOL).  Geometric
    divergence raises NonContractionError, and so does a residual that stops
    falling above the tolerance while its update stays above UPDATE_TOL:
    three iterations in a row that do not bring the residual 1 % below its
    smallest earlier value, named a divergence if it then exceeds its first
    value and a roundoff floor otherwise.  Roundoff jitter at a floor still
    makes tiny new minima, hence the 1 %; a solve that gains less per step
    could not gain a digit in its 200 iterations anyway.

    unitary is the frame's realization when the caller already has it (a
    stencil realizes its frames in one stack); None realizes it here.  Every
    iteration's volume is one `graph_volume_and_gradient` call in the
    frame's chart metric.
    """
    if unitary is None:
        unitary = frame.realize(ctx.metric)
    metric = ChartMetric(ctx.metric, unitary, t)
    grid = ctx.grid
    half = grid.sizes[-1] // 2 + 1
    inverse_symbol = ctx.inverse_symbol[..., :half]
    mask = inverse_symbol != 0.0
    # the vol_norm of the residual and of the update by Parseval on the half
    # spectrum, where every column but 0 and Nyquist also stands for its
    # conjugate column
    norm_weight = np.full(half, 2.0 * grid.node_weight() * ctx.density / grid.num_nodes)
    norm_weight[[0, -1]] *= 0.5
    # f is carried as its band spectrum and the volume returns its gradient
    # as one, so an iteration masks that spectrum for the residual and the
    # update and takes one inverse transform for the next field; the
    # gradient's grid values and the frame sensitivity are formed once, for
    # the converged iterate
    if init is None:
        spectrum = np.zeros(mask.shape, dtype=complex)
    else:
        spectrum = _forward(init.values, grid) * mask
    f = ScalarField(grid, _inverse(spectrum, grid, False), check=False)
    first_norm = None
    history: List[float] = []
    best, stalled = np.inf, 0
    for iteration in range(_MAX_SOLVE_ITERATIONS):
        vol, gradient, sensitivity = graph_volume_and_gradient(ctx.model, f.values, metric)
        residual = gradient * mask
        rnorm = float(np.sqrt(np.sum(norm_weight * (residual.real**2 + residual.imag**2))))
        update = inverse_symbol * residual
        unorm = float(np.sqrt(np.sum(norm_weight * (update.real**2 + update.imag**2))))
        stalled = 0 if rnorm < 0.99 * best else stalled + 1
        best = min(best, rnorm)
        history.append(rnorm)
        if first_norm is None:
            first_norm = rnorm
        if rnorm <= SOLVE_TOL or unorm <= UPDATE_TOL:
            return ReductionState(
                t=t,
                frame=frame,
                unitary=unitary,
                f=f,
                gradient=ScalarField(grid, _inverse(gradient, grid, False), check=False),
                frame_sensitivity=sensitivity(),
                residual_norm=rnorm,
                K_value=float(np.real(vol)),
                converged=True,
                iterations=iteration + 1,
                residual_history=history,
            )
        if stalled == 3 or rnorm > _DIVERGENCE_FACTOR * max(first_norm, SOLVE_TOL):
            if rnorm > first_norm:
                raise NonContractionError(
                    f"projected iteration diverged: residual {rnorm:.3e} after "
                    f"{iteration + 1} steps from initial {first_norm:.3e}"
                )
            raise NonContractionError(
                f"projected iteration stagnated at a residual floor of {best:.3e} "
                f"above tol={SOLVE_TOL:.1e}: no 1 % drop in 3 iterations"
            )
        spectrum = spectrum - update
        f = ScalarField(grid, _inverse(spectrum, grid, False), check=False)
    raise NonContractionError(
        f"projected iteration did not reach tol={SOLVE_TOL:.1e} within "
        f"{_MAX_SOLVE_ITERATIONS} iterations (last residual {rnorm:.3e})"
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
    zero_mean = ctx.kernel_modes[ctx.kernel_modes != 0]
    return ctx.vol_pairings([grad], _volume_modes(ctx, zero_mean))[0]


def _volume_modes(ctx: ReductionContext, indices: np.ndarray) -> List[ScalarField]:
    """The `_unit_modes` at flat `mode_mesh` indices, volume-normalized."""
    fields = _unit_modes(ctx.grid, indices) / np.sqrt(ctx.density)
    return [ScalarField(ctx.grid, f, check=False) for f in fields]


# --------------------------------------------------------------------------
# frame variations: potentials
# --------------------------------------------------------------------------


def _ambient_immersion(
    ctx: ReductionContext, t: float, states: Sequence[ReductionState]
) -> np.ndarray:
    """Node coordinates of the ambient tori p + t * (frame @ graph), one per
    state, stacked on a leading axis.  The chart points need only grad f, so
    the fields take one stacked spectral gradient."""
    grid, d = ctx.grid, 2 * ctx.n
    fields = np.stack([s.f.values for s in states], axis=-1)
    y = np.moveaxis(spectral_gradient(fields, grid), (0, -1), (-1, 0))  # (states, *grid, n)
    chart_coords = _chart_points(ctx.model, y)[2].reshape(len(states), -1, d)
    points = np.array([s.unitary.point for s in states])[:, None, :]
    matrices = np.array([s.unitary.matrix for s in states])
    ambient = points + t * (chart_coords @ np.swapaxes(matrices, -1, -2))
    return ambient.reshape((len(states),) + grid.sizes + (d,))


def variation_potential(
    ctx: ReductionContext,
    state: ReductionState,
    directions: np.ndarray,
) -> List[ScalarField]:
    """Chart-Hamiltonian potentials of the solved-family variation along each
    row of directions (frame-coordinate vectors).

    Differentiates the ambient immersion (with f solved at the shifted frames
    through the state's memo, so a frame the finite-difference gradient
    already solved is shared, not re-solved), pairs with the symplectic form
    to get a one-form on the torus, and integrates it to a zero-mean
    potential via a spectral Poisson solve.  The potential is normalized
    against the chart symplectic form (ambient pairing / t^2), which makes
    dK(e) = <potential, residual gradient> hold with unit coefficient.  The
    centre's tangents are taken once and the 2m neighbours' immersions in one
    stack, and each row's integration is certified: if its recovered
    potential fails to differentiate back to its one-form, ExactnessError is
    raised.
    """
    near = _solve_stencil(ctx, state, np.asarray(directions, dtype=float))
    ambient = _ambient_immersion(ctx, state.t, near)
    velocity = (ambient[0::2] - ambient[1::2]) / (2.0 * FRAME_STEP)  # (rows, *grid, 2n)

    tangents = np.real(_graph_jets(ctx.model, state.f.values)[-1])  # (*grid, n, 2n)
    frame_tangents = np.einsum("nm,...am->...an", state.unitary.matrix, tangents)
    omega = standard_symplectic_matrix(ctx.n)
    # ambient tangents are t * frame_tangents; with the 1/t^2 chart
    # normalization one factor 1/t survives.
    omega_tangents = np.einsum("kl,...al->...ak", omega, frame_tangents) / state.t
    beta = np.einsum("r...k,...ak->r...a", velocity, omega_tangents)
    potentials = _integrate_exact_one_form(ctx, beta)
    return [ScalarField(ctx.grid, values, check=False) for values in potentials]


def _integrate_exact_one_form(ctx: ReductionContext, beta: np.ndarray) -> np.ndarray:
    """Zero-mean h with dh = beta, via Fourier division by the flat Laplacian
    sum_a d_a^2 / a_a^2; certified afterwards.  beta is [..., *grid, n], its
    leading axes a stack of one-forms, and each is certified on its own."""
    grid = ctx.grid
    forms = beta.reshape((-1,) + grid.sizes + (grid.dim,))
    radii_sq = [a * a for a in ctx.model.radii]
    ik = derivative_multipliers(grid)
    spectra = _forward(np.moveaxis(forms, -1, 0), grid)
    laplacian = sum(k * k / r2 for k, r2 in zip(ik, radii_sq))
    laplacian = np.where(laplacian == 0.0, 1.0, laplacian)
    hat = sum(k / r2 * b for k, r2, b in zip(ik, radii_sq, spectra)) / laplacian
    values = _inverse(hat, grid, False)  # (stack, *grid)

    derivs = spectral_gradient(np.moveaxis(values, 0, -1), grid)  # (n, *grid, stack)
    defect = np.moveaxis(derivs, (0, -1), (-1, 0)) - forms
    axes = tuple(range(1, forms.ndim))
    worst = np.max(np.abs(defect), axis=axes)
    scale = np.maximum(1.0, np.max(np.abs(forms), axis=axes))
    for row_worst, row_scale in zip(worst, scale):
        if row_worst > EXACTNESS_TOL * row_scale:
            raise ExactnessError(
                f"variation one-form is not exact: potential recovery defect "
                f"{row_worst:.3e} exceeds {EXACTNESS_TOL:.1e} (scale {row_scale:.3e})"
            )
    return values.reshape(beta.shape[:-1])


# --------------------------------------------------------------------------
# the reduced gradient
# --------------------------------------------------------------------------


@dataclass
class GradientReport:
    """Three independent evaluations of dK at a frame, along the columns of
    [ctx.quotient | ctx.symmetries].

    fd differentiates the solved K directly; factored assembles the same
    gradient as the pairing of frame-variation potentials with the kernel
    residual components; envelope is `frame_gradient`, the exact frame
    derivative at frozen f that the optimizer uses.  Agreement is the
    correctness certificate of the reduction; the symmetry components
    (entries m onwards, m = ctx.quotient.shape[1]) vanish."""

    fd: np.ndarray
    factored: np.ndarray
    envelope: np.ndarray


def _solve_stencil(
    ctx: ReductionContext, state: ReductionState, directions: np.ndarray
) -> List[ReductionState]:
    """Warm solves at the state's frame shifted by +-FRAME_STEP along each row
    of directions, in the order (+row 0, -row 0, +row 1, ...), memoized on
    the state.  A neighbour starts from f, or, once its opposite neighbour
    is solved, from the reflection 2 f - f_opposite, off by O(FRAME_STEP^2)
    instead of O(FRAME_STEP) since the solved field is smooth in the frame.
    The key is the shifted coordinates, not the shift: -e carries -0.0 where
    +e carries +0.0, and both must find the frame they shift to.  The frames
    not yet in the memo are realized in one stacked `FrameState.realize` (a
    stack of 16 costs about one lone realization)."""
    deltas = [sign * FRAME_STEP * row for row in directions for sign in (1.0, -1.0)]
    frames = [state.frame.shifted(delta) for delta in deltas]
    keys = [frame.coords.tobytes() for frame in frames]
    new = [k for k, key in enumerate(keys) if key not in state._neighbours]
    if new:
        stack = replace(state.frame, coords=np.array([frames[k].coords for k in new]))
        realized = stack.realize(ctx.metric)
    for i, k in enumerate(new):
        init = state.f
        mirror = state._neighbours.get(state.frame.shifted(-deltas[k]).coords.tobytes())
        if mirror is not None:
            init = ScalarField(ctx.grid, 2.0 * state.f.values - mirror.f.values, check=False)
        unitary = UnitaryFrame(realized.point[i], realized.matrix[i])
        state._neighbours[keys[k]] = projected_solve(
            ctx, state.t, frames[k], init=init, unitary=unitary
        )
    return [state._neighbours[key] for key in keys]


def _realize_jacobian(
    metric, frame: FrameState, directions: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """(d point, d matrix) of `FrameState.realize` along each row of
    directions at the frame's coordinates, by complex step: exact to
    roundoff, with no subtraction.  The rows are one stacked complex
    realization; a frame whose coords carry leading axes (a stack of frames)
    gets those axes in front of the rows."""
    coords = frame.coords[..., None, :] + 1j * _COMPLEX_STEP * np.asarray(directions)
    moved = replace(frame, coords=coords).realize(metric)
    return moved.point.imag / _COMPLEX_STEP, moved.matrix.imag / _COMPLEX_STEP


def _envelope_gradient(
    state: ReductionState, d_point: np.ndarray, d_matrix: np.ndarray
) -> np.ndarray:
    """The state's affine sensitivity chained through a Jacobian of `realize`
    (see `frame_gradient`)."""
    d_shift, d_linear = state.frame_sensitivity
    inverse = np.linalg.inv(state.unitary.matrix)
    db = d_point @ inverse.T / state.t  # (directions, 2n)
    dA = inverse @ d_matrix  # (directions, 2n, 2n)
    return np.real(db @ d_shift + np.einsum("ikl,kl->i", dA, d_linear))


def frame_gradient(
    ctx: ReductionContext, state: ReductionState, directions: np.ndarray
) -> np.ndarray:
    """Exact derivative of K along each row of directions (frame-coordinate
    vectors) at a solved state, with no solve.

    At a solved state f is kernel-orthogonal and the projected residual
    vanishes to the solver tolerance, so by the envelope theorem dK/dc is
    the frame derivative of the volume at frozen f, up to O(tol).  A frame
    moved to (p', u') pulls the chart metric back by the affine map with
    1 + A = u^-1 u' and b = u^-1 (p' - p) / t, so that derivative is the
    state's affine sensitivity chained through the Jacobian of `realize`."""
    return _envelope_gradient(state, *_realize_jacobian(ctx.metric, state.frame, directions))


def _fd_gradient(
    ctx: ReductionContext, state: ReductionState, directions: np.ndarray
) -> np.ndarray:
    """Central differences of the solved K at +-FRAME_STEP along each row of
    directions: `gradient_K`'s oracle of the envelope gradient, not read by
    the search.  Its warm solves are shared with `hessian_K`, the variation
    potentials and the cross block through the state's memo.  Each
    component moves in steps of ulp(K) / (2 FRAME_STEP)."""
    K = np.array([near.K_value for near in _solve_stencil(ctx, state, directions)])
    return (K[0::2] - K[1::2]) / (2.0 * FRAME_STEP)


def gradient_K(ctx: ReductionContext, state: ReductionState) -> GradientReport:
    """Gradient of the reduced volume along quotient and symmetries, three ways.

    fd is `_fd_gradient`; factored pairs the variation potentials with the
    reduced basis in one product; envelope is `frame_gradient`, the one
    `optimize_frame` reports.  A cross-check of the reduction: the search
    does not call it, so the solves along the symmetries are made only here."""
    directions = np.hstack([ctx.quotient, ctx.symmetries]).T
    basis = _volume_modes(ctx, ctx.kernel_modes[ctx.kernel_modes != 0])
    H = H_eval(ctx, state)
    fd = _fd_gradient(ctx, state, directions)
    potentials = variation_potential(ctx, state, directions)
    return GradientReport(
        fd=fd,
        factored=ctx.vol_pairings(potentials, basis) @ H,
        envelope=frame_gradient(ctx, state, directions),
    )


# --------------------------------------------------------------------------
# frame optimization
# --------------------------------------------------------------------------


def hessian_K(ctx: ReductionContext, state: ReductionState) -> np.ndarray:
    """Hessian of the solved K over the quotient basis, symmetrized, in the
    exponential coordinates of the state's anchor: at a critical point its
    signs do not depend on the chart, but its values move with the anchor.

    Central differences of the exact `frame_gradient` at the 2m frames
    shifted by +-FRAME_STEP along each of the m columns of ctx.quotient: 10
    warm solves at n = 2, one stacked realization of the frames not yet
    solved, and one stacked complex-step realization for all 2m Jacobians.
    The neighbours are solved through the state's memo, shared with the
    cross block and `_fd_gradient`.  The symmetries are left out, so the
    default metric's Hessian has no exact zero mode.  The gradients carry
    the envelope error O(tol), so an entry's noise is about tol / FRAME_STEP
    (see `_SADDLE_TOL`); the O(FRAME_STEP^2) truncation error is below it."""
    quotient = ctx.quotient.T
    near = _solve_stencil(ctx, state, quotient)
    stack = replace(state.frame, coords=np.array([s.frame.coords for s in near]))
    jacobians = zip(*_realize_jacobian(ctx.metric, stack, quotient))
    grads = np.array([_envelope_gradient(s, *jac) for s, jac in zip(near, jacobians)])
    hess = ((grads[0::2] - grads[1::2]) / (2.0 * FRAME_STEP)).T
    return 0.5 * (hess + hess.T)


@dataclass
class OptimizationResult:
    """Outcome of a reduced-volume frame search.

    gradient_norm and stabilizer_gradient_norm are the norms of the exact
    `frame_gradient` at the final state over ctx.quotient, the one the
    search stops on, and along ctx.symmetries, where K's invariance makes it
    vanish up to the envelope error and aliasing.  hessian_eigenvalues are
    taken in the exponential coordinates of the state's anchor: their signs,
    and so is_minimum, do not depend on the chart, but their values do."""

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
    trace: List[dict]
    start_history: List[float]


def _is_saddle(eigenvalue: float) -> bool:
    """Whether a Hessian eigenvalue of K is a descent direction, not noise."""
    return bool(eigenvalue < -_SADDLE_TOL)


def _trust_step(model: np.ndarray, grad: np.ndarray, radius: float) -> Tuple[np.ndarray, float]:
    """The minimizer p of grad.p + p.model.p / 2 over |p| <= radius, and that
    minimum: the predicted change in K (Moré & Sorensen, SIAM J. Sci. Stat.
    Comput. 1983; Nocedal & Wright, Numerical Optimization, 2nd ed., 4.3).

    In the model's eigenbasis p = -c / (eigs + lam) for the least lam >= 0
    with eigs + lam >= 0 and |p| <= radius.  On the boundary lam solves
    1/|p(lam)| = 1/radius by Newton's method from below, where the iterates
    rise monotonically to the root.  In the hard case, c has no component on
    the lowest eigenspace of an indefinite model and the step at the least
    admissible lam falls inside; the step then spends the rest of the radius
    along that eigenspace.  A saddle (grad = 0) is the extreme of it."""
    eigs, vecs = np.linalg.eigh(model)
    c = vecs.T @ grad
    tiny = np.finfo(float).eps * np.max(np.abs(eigs))
    shifted = eigs - min(eigs[0], 0.0)
    low = shifted <= tiny
    coeffs = -np.divide(c, shifted, out=np.zeros_like(c), where=~low)
    # at lam + mu the lowest components alone have norm radius
    mu = np.linalg.norm(c[low]) / radius
    inside = np.linalg.norm(coeffs) < radius
    if inside and low.any() and mu <= tiny:  # the hard case
        coeffs[0] = np.copysign(np.sqrt(radius**2 - np.linalg.norm(coeffs) ** 2), -c[0])
    elif low.any() or not inside:  # on the boundary
        for _ in range(50):
            shift = shifted + mu
            coeffs = -np.divide(c, shift, out=np.zeros_like(c), where=shift > 0)
            norm = np.linalg.norm(coeffs)
            if norm - radius <= 1e-12 * radius:
                break
            curvature = np.sum(np.divide(coeffs**2, shift, out=np.zeros_like(c), where=shift > 0))
            mu += norm**2 / curvature * (norm - radius) / radius
    return vecs @ coeffs, float(c @ coeffs + 0.5 * np.sum(eigs * coeffs**2))


TRACE_COLUMNS = ("step", "K", "residual_norm", "gradient_norm", "radius", "ratio", "outcome")


def _solve(
    ctx: ReductionContext, t: float, frame: FrameState, warm, radius: float, trace: List[dict]
) -> Tuple[ReductionState, np.ndarray]:
    """A projected solve and its `frame_gradient` over the quotient, traced as
    a `TRACE_COLUMNS` row: an "anchor" unless `_descend` relabels it."""
    state = projected_solve(ctx, t, frame, init=warm)
    grad = frame_gradient(ctx, state, ctx.quotient.T)
    values = (float(state.K_value), float(state.residual_norm), float(np.linalg.norm(grad)))
    trace.append(dict(zip(TRACE_COLUMNS, (len(trace), *values, radius, float("nan"), "anchor"))))
    return state, grad


def _descend(
    ctx: ReductionContext, t: float, state: ReductionState, grad, model, radius: float, trace
) -> Tuple[ReductionState, np.ndarray, np.ndarray, float]:
    """Trust-region descent over the quotient coordinates y from a solved
    state, the frame moved by ctx.quotient @ y (Nocedal & Wright, Numerical
    Optimization, 2nd ed., ch. 4 and 6), to the state, gradient, model and
    radius at which it stops: after an accepted step at |dK| <= _POLISH_TOL,
    or once the trace holds _MAX_SEARCH_SOLVES solves.  The model takes an
    SR1 update, skipped when |r.s| <= 1e-8 |r| |s| (the envelope error is
    far below |dK| here), from each trial's exact `frame_gradient`, at a
    critical state only from an accepted step; `_trust_step` solves each
    subproblem exactly, negative curvature included.  A trial starts from
    the last accepted field, and is accepted ("ratio") when rho, its actual
    over its predicted change in K, exceeds 1e-4, or ("gradient"), once the
    predicted decrease is under K's roundoff, when it lowers |dK|.  The
    radius falls to half the step after a rejection or rho < 0.1, and
    doubles, up to _ANCHOR_XI_NORM, after a boundary step with rho > 0.75;
    a frame whose rotation coordinates pass it is re-anchored."""
    Q = ctx.quotient
    while len(trace) < _MAX_SEARCH_SOLVES:
        step, predicted = _trust_step(model, grad, radius)
        trial, trial_grad = _solve(ctx, t, state.frame.shifted(Q @ step), state.f, radius, trace)
        ratio = (trial.K_value - state.K_value) / predicted
        by_ratio = -predicted > _K_ROUNDOFF * abs(state.K_value)
        if by_ratio:
            accepted = ratio > 1e-4
        else:
            accepted = np.linalg.norm(trial_grad) < np.linalg.norm(grad)
        outcome = ("ratio" if by_ratio else "gradient") if accepted else "rejected"
        trace[-1].update(ratio=float(ratio), outcome=outcome)
        length = float(np.linalg.norm(step))
        r = trial_grad - grad - model @ step
        critical = np.linalg.norm(grad) <= _POLISH_TOL
        if (accepted or not critical) and abs(r @ step) > 1e-8 * length * np.linalg.norm(r):
            model = model + np.outer(r, r) / (r @ step)
        if not accepted or (by_ratio and ratio < 0.1):
            radius = 0.5 * length
        elif by_ratio and ratio > 0.75 and length > 0.8 * radius:
            radius = min(2.0 * radius, _ANCHOR_XI_NORM)
        if accepted:
            state, grad = trial, trial_grad
            if state.frame.xi_norm() > _ANCHOR_XI_NORM:
                anchored = state.frame.anchored(ctx.metric)
                state, grad = _solve(ctx, t, anchored, state.f, radius, trace)
            if np.linalg.norm(grad) <= _POLISH_TOL:
                break
    return state, grad, model, radius


def optimize_frame(
    ctx: ReductionContext,
    t: float,
    init: FrameState,
    settings: Optional[OptimizeSettings] = None,
) -> OptimizationResult:
    """Minimize the reduced volume over the frame quotient, then classify.

    `_descend` runs from the cold solve with a zero model, so its first step
    runs down the gradient to the radius; a critical start takes no step.
    One `hessian_K` classifies each point where it stops.  At a saddle, while
    escapes and solves remain, the descent leaves it along the most negative
    direction with that Hessian as its model at the full radius; if it
    returns the saddle itself, the Hessian is kept.  Nothing moves along the
    symmetries.  gradient_norm and stabilizer_gradient_norm are the exact
    `frame_gradient` at the final state over the quotient and along the
    symmetries (no finite difference of K); start_history holds the cold
    solve's residuals."""
    settings = settings if settings is not None else OptimizeSettings()
    trace: List[dict] = []
    state, grad = _solve(ctx, t, init.anchored(ctx.metric), None, _ANCHOR_XI_NORM, trace)
    start_history = state.residual_history
    if np.linalg.norm(grad) > _POLISH_TOL:
        zero = np.zeros((ctx.quotient.shape[1],) * 2)
        state, grad, _, _ = _descend(ctx, t, state, grad, zero, _ANCHOR_XI_NORM, trace)
    hess, saddle_restarts = hessian_K(ctx, state), 0
    while saddle_restarts < settings.max_saddle_restarts and len(trace) < _MAX_SEARCH_SOLVES:
        if not _is_saddle(np.linalg.eigvalsh(hess)[0]):
            break
        saddle_restarts += 1
        saddle = state
        state, grad, _, _ = _descend(ctx, t, state, grad, hess, _ANCHOR_XI_NORM, trace)
        if state is not saddle:
            hess = hessian_K(ctx, state)
    eigs = np.linalg.eigvalsh(hess)

    stabilizer = frame_gradient(ctx, state, ctx.symmetries.T)
    rel, absolute, _ = geometric_residual(ctx, state)
    return OptimizationResult(
        state=state,
        gradient_norm=float(np.linalg.norm(grad)),
        stabilizer_gradient_norm=float(np.linalg.norm(stabilizer)),
        hessian=hess,
        hessian_eigenvalues=eigs,
        is_minimum=not _is_saddle(eigs[0]),
        saddle_restarts=saddle_restarts,
        anchor_rounds=sum(row["outcome"] == "anchor" for row in trace),
        residual_relative=rel,
        residual_absolute=absolute,
        solver_evaluations=len(trace),
        trace=trace,
        start_history=start_history,
    )


def geometric_residual(
    ctx: ReductionContext, state: ReductionState
) -> Tuple[float, float, float]:
    """Stationarity defect of the ambient immersion in the full metric.

    Returns (relative, absolute, mean_curvature_norm): the L^2 norm of the
    codifferential of the mean-curvature one-form against its own norm,
    measured with the induced volume density.  This certificate never touches
    the reduction machinery."""
    imm = Immersion(ctx.grid, _ambient_immersion(ctx, state.t, [state])[0])
    certificate = hs_residual(imm, ctx.metric)
    defect_norm, alpha_norm = certificate.defect_norm, certificate.alpha_norm
    return defect_norm / alpha_norm, defect_norm, alpha_norm


# --------------------------------------------------------------------------
# second variation at a located torus
# --------------------------------------------------------------------------


@dataclass
class SecondVariationReport:
    """Blocks of the volume Hessian at a located stationary torus.

    transverse_fd is the second variation of the full functional along three
    kernel-orthogonal field directions, from the solved state and two volumes
    per direction (see `second_variation_Q`), and transverse_model the flat
    quadratic form on them (both in ambient scale, i.e. multiplied by t^n),
    and transverse_relative_error their largest relative gap;
    frame_eigenvalues are those of the reduced Hessian; cross_* measure the
    mixed block, which vanishes at leading order."""

    transverse_fd: np.ndarray
    transverse_model: np.ndarray
    transverse_relative_error: float
    frame_eigenvalues: np.ndarray
    cross_block: np.ndarray
    cross_relative: float


def _field_modes(ctx: ReductionContext) -> np.ndarray:
    """Flat `mode_mesh` indices of the transverse probes, k = (2, 0), (1, 1)
    and (0, -2) on the first two axes: band modes (|k| <= 2 < N/2) off the
    flat kernel, their symbols 12/a1^4, 4/(a1^2 a2^2), 12/a2^4 positive."""
    k = np.zeros((ctx.n, 3), dtype=int)
    k[:2] = [[2, 1, 0], [0, 1, -2]]
    return np.ravel_multi_index(tuple(k), ctx.grid.sizes, mode="wrap")


def _field_directions(ctx: ReductionContext) -> List[ScalarField]:
    """The transverse probes cos 2 theta_1, cos(theta_1 + theta_2) and
    sin 2 theta_2: the `_volume_modes` at `_field_modes`, the last negated
    (`_real_modes` gives k = (0, -2) as sin(-2 theta_2))."""
    directions = _volume_modes(ctx, _field_modes(ctx))
    directions[2].values *= -1.0
    return directions


def _transverse_second_variation(
    ctx: ReductionContext, state: ReductionState, directions: Sequence[ScalarField]
) -> np.ndarray:
    """The second variation of the volume at a solved state along each of
    directions, in chart scale, from two volumes per direction h in the
    state's chart metric, with eps = FIELD_STEP: a gradient volume at
    f + eps h, which gives V+ and the slope p+ = <h, P(f + eps h)>, and a
    value-only volume V- at f - eps h.  The state holds V0 (K_value) and
    p0 = <h, P(f)> (its gradient).  With Taylor's expansions
    V(+-eps) = V0 +- eps p0 + eps^2 Q/2 +- eps^3 C/6 + eps^4 D/24 and
    p+ = p0 + eps Q + eps^2 C/2 + eps^3 D/6,

        Q = (3.5 V+ + 0.5 V- - 4 V0 - eps (2 p0 + p+)) / eps^2 + O(eps^3):

    the weights cancel V0, p0, C and D exactly."""
    metric = ChartMetric(ctx.metric, state.unitary, state.t)
    eps = FIELD_STEP
    slopes = ctx.vol_pairings([state.gradient], directions)[0]
    second = np.zeros(len(directions))
    for i, direction in enumerate(directions):
        step = eps * direction.values
        plus, gradient, _ = graph_volume_and_gradient(ctx.model, state.f.values + step, metric)
        minus, _, _ = graph_volume_and_gradient(
            ctx.model, state.f.values - step, metric, need_gradient=False
        )
        slope = ctx.vol_inner(
            direction, ScalarField(ctx.grid, _inverse(gradient, ctx.grid, False), check=False)
        )
        second[i] = (
            3.5 * float(np.real(plus))
            + 0.5 * float(np.real(minus))
            - 4.0 * state.K_value
            - eps * (2.0 * slopes[i] + slope)
        ) / eps**2
    return second


def second_variation_Q(
    ctx: ReductionContext, state: ReductionState, frame_block: np.ndarray
) -> SecondVariationReport:
    """Assemble the three Hessian blocks at a solved critical frame.

    frame_block is the reduced Hessian `hessian_K` at the state, which
    `optimize_frame` returns.  The transverse block takes two volumes per
    field direction (`_transverse_second_variation`); the cross block reads
    the gradients of the neighbour solves along the quotient, which a
    located state has memoized from `hessian_K`."""
    field_directions = _field_directions(ctx)
    scale = state.t**ctx.n
    transverse_fd = scale * _transverse_second_variation(ctx, state, field_directions)
    # on a volume-normalized real Fourier mode the flat form <h, L h> is the
    # mode's symbol
    transverse_model = scale * ctx.flat_operator.symbol.flat[_field_modes(ctx)]
    rel_err = float(
        np.max(
            np.abs(transverse_fd - transverse_model)
            / np.maximum(np.abs(transverse_model), 1e-12)
        )
    )

    frame_block = scale * np.asarray(frame_block)
    frame_eigs = np.linalg.eigvalsh(frame_block)

    near = _solve_stencil(ctx, state, ctx.quotient.T)
    pairs = ctx.vol_pairings([s.gradient for s in near], field_directions)
    cross = scale * (pairs[0::2] - pairs[1::2]).T / (2.0 * FRAME_STEP)
    diag_scale = np.sqrt(
        np.abs(transverse_fd)[:, None] * np.abs(np.diag(frame_block))[None, :]
    )
    cross_rel = float(np.max(np.abs(cross) / np.maximum(diag_scale, 1e-12)))

    return SecondVariationReport(
        transverse_fd=transverse_fd,
        transverse_model=transverse_model,
        transverse_relative_error=rel_err,
        frame_eigenvalues=frame_eigs,
        cross_block=cross,
        cross_relative=cross_rel,
    )
