"""Spectral calculus and induced geometry on uniform periodic grids.

Everything below works on tensor-product grids over a flat n-torus, optionally
carrying a Z2 identification (covering-grid representation with a half-period
shift on flagged axes).  Derivatives are Fourier multipliers, quadrature is the
uniform rectangle rule; both are spectrally accurate on smooth periodic data.

Ambient space is R^{2n} with interleaved coordinates (x1, y1, ..., xn, yn),
standard symplectic form omega0(u, v) = sum_j (u_xj v_yj - u_yj v_xj), and an
ambient metric supplied by an evaluator object (None means Euclidean).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import GridMismatchError, ImmersionError, QuotientError

__all__ = [
    "GridDescriptor",
    "ScalarField",
    "OneFormField",
    "MetricField",
    "Immersion",
    "standard_symplectic_matrix",
    "spectral_derivative",
    "l2_inner",
    "l2_norm",
    "induced_metric",
    "volume",
    "volume_density",
    "mean_curvature_one_form",
    "codifferential",
    "hs_residual",
    "one_form_l2_norm",
]

_QUOTIENT_TOL = 1e-12


@dataclass(frozen=True)
class GridDescriptor:
    """Uniform periodic tensor grid, optionally with a Z2 shift identification.

    sizes: nodes per axis (even, >= 8 so the spectral symmetry conventions hold).
    periods: axis periods.
    quotient: per-axis flags; flagged axes are identified under a half-period
        shift applied simultaneously on all flagged axes.
    """

    sizes: tuple[int, ...]
    periods: tuple[float, ...]
    quotient: Optional[tuple[bool, ...]] = None

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.periods):
            raise GridMismatchError("sizes and periods must have equal length")
        for n in self.sizes:
            if n < 8 or n % 2 != 0:
                raise GridMismatchError(f"grid sizes must be even and >= 8, got {n}")
        for p in self.periods:
            if not p > 0:
                raise GridMismatchError(f"periods must be positive, got {p}")
        if self.quotient is not None:
            if len(self.quotient) != len(self.sizes):
                raise GridMismatchError("quotient flags must match grid dimension")
            if not any(self.quotient):
                raise QuotientError("quotient present but no axis is flagged")

    @property
    def dim(self) -> int:
        return len(self.sizes)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.sizes))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        n, p = self.sizes[axis], self.periods[axis]
        return np.arange(n) * (p / n)

    def meshgrid(self) -> list[np.ndarray]:
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij"))

    def node_weight(self) -> float:
        """Quadrature weight of a single node (halved on quotient grids)."""
        w = float(np.prod(self.periods)) / self.num_nodes
        if self.quotient is not None:
            w *= 0.5
        return w

    def quotient_shift(self) -> tuple[int, ...]:
        """Node shift realizing the Z2 identification on the covering grid."""
        if self.quotient is None:
            raise QuotientError("grid carries no quotient")
        return tuple(n // 2 if f else 0 for n, f in zip(self.sizes, self.quotient))


def _check_same_grid(a: GridDescriptor, b: GridDescriptor) -> None:
    if a != b:
        raise GridMismatchError("objects live on different grids")


def _quotient_defect(grid: GridDescriptor, values: np.ndarray) -> float:
    shift = grid.quotient_shift()
    rolled = np.roll(values, shift, axis=tuple(range(grid.dim)))
    return float(np.max(np.abs(values - rolled)))


@dataclass
class ScalarField:
    """Real scalar samples on the nodes of a grid."""

    grid: GridDescriptor
    values: np.ndarray
    check: bool = True

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.sizes:
            raise GridMismatchError(
                f"value shape {self.values.shape} != grid sizes {self.grid.sizes}"
            )
        if self.check and self.grid.quotient is not None:
            defect = _quotient_defect(self.grid, self.values)
            scale = max(1.0, float(np.max(np.abs(self.values))))
            if defect > _QUOTIENT_TOL * scale:
                raise QuotientError(f"field breaks Z2 invariance by {defect:.3e}")

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), check=False)


@dataclass
class OneFormField:
    """Coordinate components alpha_a of a one-form, stacked along axis 0."""

    grid: GridDescriptor
    components: np.ndarray  # shape (dim, *sizes)

    def __post_init__(self) -> None:
        self.components = np.asarray(self.components, dtype=float)
        want = (self.grid.dim,) + self.grid.sizes
        if self.components.shape != want:
            raise GridMismatchError(f"component shape {self.components.shape} != {want}")


@dataclass
class MetricField:
    """Symmetric 2-tensor h_ab per node; entries has shape (*sizes, dim, dim)."""

    grid: GridDescriptor
    entries: np.ndarray

    def __post_init__(self) -> None:
        self.entries = np.asarray(self.entries, dtype=float)
        want = self.grid.sizes + (self.grid.dim, self.grid.dim)
        if self.entries.shape != want:
            raise GridMismatchError(f"entry shape {self.entries.shape} != {want}")

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.entries)

    def determinant(self) -> np.ndarray:
        return np.linalg.det(self.entries)


def standard_symplectic_matrix(n: int) -> np.ndarray:
    """omega0 as a matrix in interleaved coordinates: Omega[2j, 2j+1] = +1."""
    omega = np.zeros((2 * n, 2 * n))
    for j in range(n):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


@dataclass
class Immersion:
    """Map from the grid into R^{2 dim}; coords has shape (*sizes, 2 dim).

    Construction gates: the spectral Jacobian must have full rank at every node
    and the pullback of omega0 must vanish (|.| <= 1e-8 nodewise), so every
    Immersion instance is discretely Lagrangian.
    """

    grid: GridDescriptor
    coords: np.ndarray
    check: bool = True
    _jac: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        want = self.grid.sizes + (2 * self.grid.dim,)
        if self.coords.shape != want:
            raise GridMismatchError(f"coords shape {self.coords.shape} != {want}")
        if self.check:
            jac = self.jacobian()
            sv = np.linalg.svd(jac, compute_uv=False)
            if float(np.min(sv)) <= 1e-10:
                raise ImmersionError("Jacobian loses rank at some node")
            pb = _symplectic_pullback(self.grid, jac)
            defect = float(np.max(np.abs(pb)))
            if defect > 1e-8:
                raise ImmersionError(f"omega0 pullback defect {defect:.3e} exceeds 1e-8")
            if self.grid.quotient is not None:
                # the immersion must descend: coords equal at identified nodes,
                # so every geometric scalar downstream inherits Z2 invariance
                shift = self.grid.quotient_shift()
                rolled = np.roll(self.coords, shift, axis=tuple(range(self.grid.dim)))
                defect = float(np.max(np.abs(self.coords - rolled)))
                if defect > 1e-10:
                    raise QuotientError(f"coords not Z2-invariant (defect {defect:.3e})")

    def jacobian(self) -> np.ndarray:
        """d_a iota^mu, shape (*sizes, 2 dim, dim), via spectral derivatives."""
        if self._jac is None:
            cols = [
                _deriv_array(self.coords, self.grid, axis=a, coord_axis=True)
                for a in range(self.grid.dim)
            ]
            self._jac = np.stack(cols, axis=-1)
        return self._jac

    def second_derivatives(self) -> np.ndarray:
        """d_a d_b iota^mu, shape (*sizes, 2 dim, dim, dim)."""
        jac = self.jacobian()
        cols = []
        for b in range(self.grid.dim):
            cols.append(_deriv_array(jac, self.grid, axis=b, coord_axis=True))
        return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# spectral primitives


def _multiplier(grid: GridDescriptor, axis: int) -> np.ndarray:
    """i * k derivative multiplier with the Nyquist mode zeroed.

    Zeroing Nyquist keeps the derivative of real data real and makes the
    derivative matrix exactly antisymmetric, which the adjoint-based gradient
    code relies on.
    """
    n, p = grid.sizes[axis], grid.periods[axis]
    k = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies
    k[n // 2] = 0.0
    return 1j * (2.0 * np.pi / p) * k


def _deriv_array(
    values: np.ndarray, grid: GridDescriptor, axis: int, coord_axis: bool = False
) -> np.ndarray:
    """Spectral d/dx_axis on raw samples; preserves real/complex dtype.

    coord_axis=True means trailing axes are component axes (not grid axes);
    grid axes always occupy the leading block.
    """
    if not np.isrealobj(values):
        # Differentiate real and imaginary parts through separate real
        # transforms.  A single complex FFT mixes the two slots in its
        # butterflies, so roundoff from an O(1) real part would contaminate a
        # tiny imaginary part (fatal for complex-step derivatives, which carry
        # the directional derivative in an O(1e-100) imaginary slot).
        return _deriv_array(values.real, grid, axis) + 1j * _deriv_array(
            values.imag, grid, axis
        )
    mult = _multiplier(grid, axis)
    shape = [1] * values.ndim
    shape[axis] = grid.sizes[axis]
    spec = np.fft.fft(values, axis=axis) * mult.reshape(shape)
    out = np.fft.ifft(spec, axis=axis)
    return np.ascontiguousarray(out.real)


def spectral_derivative(f: ScalarField, axis: int) -> ScalarField:
    """Exact derivative of the trigonometric interpolant of f along one axis."""
    vals = _deriv_array(f.values, f.grid, axis)
    return ScalarField(f.grid, vals, check=False)


def l2_inner(f: ScalarField, g: ScalarField, density: Optional[ScalarField] = None) -> float:
    """L2 inner product; density defaults to 1 (unit volume element).

    On quotient grids the covering quadrature is halved, consistent with
    `volume`, so <1, 1> equals the quotient volume.
    """
    _check_same_grid(f.grid, g.grid)
    w = f.grid.node_weight()
    if density is None:
        return float(np.sum(f.values * g.values) * w)
    _check_same_grid(f.grid, density.grid)
    return float(np.sum(f.values * g.values * density.values) * w)


def l2_norm(f: ScalarField, density: Optional[ScalarField] = None) -> float:
    return float(np.sqrt(max(l2_inner(f, f, density), 0.0)))


# ---------------------------------------------------------------------------
# induced geometry


def _symplectic_pullback(grid: GridDescriptor, jac: np.ndarray) -> np.ndarray:
    omega = standard_symplectic_matrix(grid.dim)
    return np.einsum("...ma,mn,...nb->...ab", jac, omega, jac)


def induced_metric(imm: Immersion, metric=None) -> MetricField:
    """First fundamental form h_ab = g(d_a iota, d_b iota)."""
    jac = imm.jacobian()
    if metric is None:
        entries = np.einsum("...ma,...mb->...ab", jac, jac)
    else:
        g = metric.value(imm.coords)
        entries = np.einsum("...ma,...mn,...nb->...ab", jac, g, jac)
    return MetricField(imm.grid, entries)


def volume_density(h: MetricField) -> ScalarField:
    det = h.determinant()
    if np.any(det <= 0):
        raise ImmersionError("induced metric is not positive definite")
    return ScalarField(h.grid, np.sqrt(det), check=False)


def volume(imm: Immersion, metric=None) -> float:
    """Riemannian volume by rectangle-rule quadrature of sqrt(det h).

    Spectrally accurate for smooth immersions; on quotient grids the result is
    the covering-space value divided by 2.
    """
    h = induced_metric(imm, metric)
    dens = volume_density(h)
    return float(np.sum(dens.values) * imm.grid.node_weight())


def _ambient_christoffel(metric, coords: np.ndarray) -> Optional[np.ndarray]:
    """Gamma^mu_{nu lam} of the ambient metric along the immersion.

    Uses the jet (g, dg) = metric.derivative(points), whose second element has
    index layout dg[..., mu, i, j] = dg_ij / dz_mu.
    """
    if metric is None:
        return None
    g, dg = metric.derivative(coords)
    ginv = np.linalg.inv(g)
    # S[..., s, nu, l] = d_nu g_{sl} + d_l g_{s nu} - d_s g_{nu l}
    S = np.moveaxis(dg, -3, -2) + np.moveaxis(dg, -3, -1) - dg
    return 0.5 * np.einsum("...ms,...snl->...mnl", ginv, S)


def _induced_christoffel(h: MetricField) -> np.ndarray:
    grid = h.grid
    dh = np.stack(
        [_deriv_array(h.entries, grid, axis=c, coord_axis=True) for c in range(grid.dim)],
        axis=-3,
    )  # dh[..., c, a, b] = d_c h_{ab}
    hinv = h.inverse()
    # S[..., d, a, b] = d_a h_{db} + d_b h_{da} - d_d h_{ab}
    S = np.moveaxis(dh, -3, -2) + np.moveaxis(dh, -3, -1) - dh
    return 0.5 * np.einsum("...cd,...dab->...cab", hinv, S)


def mean_curvature_one_form(imm: Immersion, metric=None) -> OneFormField:
    """alpha_H = omega0(H, d_a iota) with H the tension-field mean curvature.

    H^mu = h^{ab} (d_a d_b iota^mu - Gamma^c_ab d_c iota^mu
                   + Gamma^mu_{nu lam} d_a iota^nu d_b iota^lam),
    which is the trace of the second fundamental form of the immersion, hence
    normal-valued; contraction with omega0 gives the Hamiltonian-stationarity
    one-form on the grid.  Sign convention: the round circle of radius a in the
    Euclidean plane gives alpha_H(d_theta) = -1.
    """
    grid = imm.grid
    jac = imm.jacobian()
    dd = imm.second_derivatives()
    h = induced_metric(imm, metric)
    hinv = h.inverse()
    gamma_l = _induced_christoffel(h)
    H = np.einsum("...ab,...mab->...m", hinv, dd)
    H -= np.einsum("...ab,...cab,...mc->...m", hinv, gamma_l, jac)
    gamma_a = _ambient_christoffel(metric, imm.coords)
    if gamma_a is not None:
        H += np.einsum("...ab,...mnl,...na,...lb->...m", hinv, gamma_a, jac, jac)
    omega = standard_symplectic_matrix(grid.dim)
    comps = np.einsum("...m,mn,...na->a...", H, omega, jac)
    return OneFormField(grid, comps)


def codifferential(alpha: OneFormField, h: MetricField) -> ScalarField:
    """Coordinate codifferential of a one-form w.r.t. the metric h:

        d* alpha = - (d_b h^{ab}) alpha_a - h^{ab} d_b alpha_a
                   - 1/2 h^{ab} alpha_a d_b(log det h)

    Spectral derivatives throughout; exact up to aliasing on analytic data.
    """
    _check_same_grid(alpha.grid, h.grid)
    grid = alpha.grid
    hinv = h.inverse()
    dhinv = np.stack(
        [_deriv_array(hinv, grid, axis=b, coord_axis=True) for b in range(grid.dim)],
        axis=-3,
    )  # [..., b, a, c] = d_b h^{ac}
    comp = alpha.components  # [a, ...]
    dalpha = np.stack(
        [
            np.stack([_deriv_array(comp[a], grid, axis=b) for a in range(grid.dim)])
            for b in range(grid.dim)
        ]
    )  # [b, a, ...] = d_b alpha_a
    logdet = np.log(h.determinant())
    dlog = np.stack(
        [_deriv_array(logdet, grid, axis=b) for b in range(grid.dim)], axis=0
    )  # [b, ...]
    # Explicit loops over the (small) coordinate indices beat einsum gymnastics
    # here for clarity; dim <= 3 in every use.
    out = np.zeros(grid.sizes, dtype=np.result_type(comp, hinv))
    for a in range(grid.dim):
        for b in range(grid.dim):
            out -= dhinv[..., b, a, b] * comp[a]
            out -= hinv[..., a, b] * dalpha[b, a]
            out -= 0.5 * hinv[..., a, b] * comp[a] * dlog[b]
    return ScalarField(grid, out, check=False)


def hs_residual(imm: Immersion, metric=None) -> ScalarField:
    """Hamiltonian-stationarity defect d* alpha_H of an immersion.

    Zero (to discretization error) exactly on discretely Hamiltonian
    stationary immersions.
    """
    h = induced_metric(imm, metric)
    alpha = mean_curvature_one_form(imm, metric)
    return codifferential(alpha, h)


def one_form_l2_norm(alpha: OneFormField, h: MetricField) -> float:
    """L2 norm of a one-form w.r.t. h and its volume density."""
    _check_same_grid(alpha.grid, h.grid)
    hinv = h.inverse()
    dens = volume_density(h).values
    comp = alpha.components
    sq = np.zeros(alpha.grid.sizes)
    for a in range(alpha.grid.dim):
        for b in range(alpha.grid.dim):
            sq += hinv[..., a, b] * comp[a] * comp[b]
    total = float(np.sum(sq * dens) * alpha.grid.node_weight())
    return float(np.sqrt(max(total, 0.0)))
