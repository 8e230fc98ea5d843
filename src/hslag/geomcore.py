"""Spectral calculus and induced geometry on uniform periodic grids.

Everything below works on tensor-product grids over a flat n-torus, optionally
carrying a Z2 identification (covering-grid representation with a half-period
shift on flagged axes).  Derivatives are Fourier multipliers, quadrature is the
uniform rectangle rule; both are spectrally accurate on smooth periodic data.

Ambient space is R^{2n} with interleaved coordinates (x1, y1, ..., xn, yn),
standard symplectic form omega0(u, v) = sum_j (u_xj v_yj - u_yj v_xj), and an
ambient metric supplied by an evaluator object (`ambient.EuclideanMetric` for
flat space).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import GridMismatchError, ImmersionError, QuotientError

__all__ = [
    "GridDescriptor",
    "ScalarField",
    "Immersion",
    "standard_symplectic_matrix",
    "mode_mesh",
    "band_mask",
    "derivative_multipliers",
    "spectral_gradient",
    "l2_inner",
    "l2_norm",
    "HSResidual",
    "hs_residual",
]

_QUOTIENT_TOL = 1e-12
# The package's one complex step: the frame Jacobian, the operator's
# Hessian-vector product and the scaling estimates' d2g take it.  Its
# O(step^2) error is far below roundoff at any small step; at 1e-100 the
# roundoff that the 2-D spectral derivatives spread over the grid (about
# 1e-116) multiplies into subnormal numbers, whose arithmetic is slow.
_COMPLEX_STEP = 1e-20
# Grids whose tables (the derivative multipliers here, the graph volume's
# in weinstein) stay cached; a run uses one or two.
_GRID_TABLES = 8


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
    _jac: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        want = self.grid.sizes + (2 * self.grid.dim,)
        if self.coords.shape != want:
            raise GridMismatchError(f"coords shape {self.coords.shape} != {want}")
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
            defect = _quotient_defect(self.grid, self.coords)
            if defect > 1e-10:
                raise QuotientError(f"coords not Z2-invariant (defect {defect:.3e})")

    def jacobian(self) -> np.ndarray:
        """d_a iota^mu, shape (*sizes, 2 dim, dim), via spectral derivatives."""
        if self._jac is None:
            self._jac = np.moveaxis(spectral_gradient(self.coords, self.grid), 0, -1)
        return self._jac

    def second_derivatives(self) -> np.ndarray:
        """d_a d_b iota^mu, shape (*sizes, 2 dim, dim, dim)."""
        return np.moveaxis(spectral_gradient(self.jacobian(), self.grid), 0, -1)


# ---------------------------------------------------------------------------
# the spectral layer: the one place that decides which Fourier modes a grid
# field carries.  Spectra use the rfftn layout over the trailing grid axes;
# mode tables (band mask, operator symbols) use the full fftn layout of
# `mode_mesh`, and a real, even table enters the rfftn layout as its first
# N/2 + 1 columns along the last axis.


def mode_mesh(grid: GridDescriptor) -> list[np.ndarray]:
    """Integer wave number along each axis of every np.fft.fftn coefficient."""
    freqs = [np.fft.fftfreq(size, d=1.0 / size) for size in grid.sizes]
    return np.meshgrid(*freqs, indexing="ij")


def band_mask(grid: GridDescriptor) -> np.ndarray:
    """The faithfully represented modes |k_j| < N_j/2, on the `mode_mesh` layout.

    On an even grid the spectral derivative zeroes the unpaired Nyquist mode,
    so fields with frequency N/2 along any axis see a truncated symbol: modes
    whose non-Nyquist part lies in an operator kernel would appear spuriously
    flat.  Grid operators and the fields they act on live on this band.
    """
    return _band_of(mode_mesh(grid), grid.sizes)


def _band_of(k: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """`band_mask` on a `mode_mesh` already built."""
    return np.logical_and.reduce([np.abs(kj) < size / 2 for kj, size in zip(k, sizes)])


@lru_cache(maxsize=_GRID_TABLES)
def derivative_multipliers(grid: GridDescriptor) -> tuple[np.ndarray, ...]:
    """i k_a for each grid axis a on the rfftn layout, Nyquist zeroed.

    Zeroing Nyquist keeps the derivative of real data real and makes the
    derivative matrix exactly antisymmetric, which the adjoint-based gradient
    code relies on.  Each multiplier broadcasts against the grid axes.  The
    tables are built once per grid and shared, so they are read-only.
    """
    out = []
    for a, (n, p) in enumerate(zip(grid.sizes, grid.periods)):
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer frequencies
        k[n // 2] = 0.0
        if a == grid.dim - 1:
            k = k[: n // 2 + 1]
        shape = [1] * grid.dim
        shape[a] = k.size
        out.append((1j * (2.0 * np.pi / p) * k).reshape(shape))
        out[-1].flags.writeable = False
    return tuple(out)


def _forward(fields: np.ndarray, grid: GridDescriptor) -> np.ndarray:
    """rfftn of a stack of fields over the trailing grid axes.

    Complex fields go in as their real and imaginary parts, on a new axis
    before the grid axes, so the two are never mixed in one transform: a
    complex FFT would spill roundoff from an O(1) real part into the tiny
    imaginary part that carries a complex-step derivative.  The axes are
    transformed one by one in numpy.fft.rfftn's order, so the result is
    rfftn's bit for bit, without its argument handling, which costs a third
    of a call on a 24 x 24 grid."""
    if np.iscomplexobj(fields):
        fields = np.stack([fields.real, fields.imag], axis=-grid.dim - 1)
    spectra = np.fft.rfft(fields, axis=-1)
    for axis in range(-2, -grid.dim - 1, -1):
        spectra = np.fft.fft(spectra, axis=axis)
    return spectra


def _inverse(spectra: np.ndarray, grid: GridDescriptor, complex_out: bool) -> np.ndarray:
    """Real fields from `_forward`-layout spectra; complex when the fields
    were.  numpy.fft.irfftn's axis order, as in `_forward`."""
    for axis in range(-grid.dim, -1):
        spectra = np.fft.ifft(spectra, axis=axis)
    values = np.fft.irfft(spectra, n=grid.sizes[-1], axis=-1)
    if not complex_out:
        return values
    re, im = np.moveaxis(values, -grid.dim - 1, 0)
    return re + 1j * im


@lru_cache(maxsize=_GRID_TABLES)
def _negated_modes(grid: GridDescriptor) -> tuple[np.ndarray, ...]:
    """Open-mesh indices that read a spectrum's mode k at -k over every grid
    axis but the last; built once per grid and shared, so read-only."""
    mesh = np.ix_(*[(-np.arange(size)) % size for size in grid.sizes[:-1]])
    for index in mesh:
        index.flags.writeable = False
    return mesh


def _hermitian_part(spectra: np.ndarray, grid: GridDescriptor) -> np.ndarray:
    """`_forward`-layout spectra, in place, with the columns that a real
    field keeps self-conjugate, 0 and Nyquist along the last grid axis,
    replaced by their Hermitian part (X(k) + conj X(-k)) / 2 over the other
    grid axes.

    A sum of real fields' spectra times multipliers carries roundoff there
    that no real field has, of the size of the summands, not of the sum;
    `_inverse` drops it.  With it gone, Parseval on the half spectrum is the
    grid norm of the fields `_inverse` returns."""
    edges = spectra[..., :: spectra.shape[-1] - 1]
    mirrored = edges[(Ellipsis,) + _negated_modes(grid) + (slice(None),)]
    edges[...] = 0.5 * (edges + mirrored.conj())
    return spectra


def spectral_gradient(values: np.ndarray, grid: GridDescriptor) -> np.ndarray:
    """Spectral derivatives along every grid axis, stacked on a new leading axis.

    The grid axes of values lead and any component axes trail; one forward
    transform serves all axes.  Real and complex values stay so, and complex
    values keep their parts apart (see `_forward`).
    """
    d = grid.dim
    leading, trailing = tuple(range(d)), tuple(range(-d, 0))
    spec = _forward(np.moveaxis(values, leading, trailing), grid)
    derivs = _inverse(
        np.stack([ik * spec for ik in derivative_multipliers(grid)]),
        grid,
        np.iscomplexobj(values),
    )
    return np.ascontiguousarray(np.moveaxis(derivs, trailing, tuple(range(1, d + 1))))


def l2_inner(f: ScalarField, g: ScalarField) -> float:
    """L2 inner product with the unit volume element.

    On quotient grids the covering quadrature is halved, as in the volume of
    `hs_residual`, so <1, 1> equals the quotient's coordinate volume.
    """
    _check_same_grid(f.grid, g.grid)
    return float(np.sum(f.values * g.values) * f.grid.node_weight())


def l2_norm(f: ScalarField) -> float:
    return float(np.sqrt(max(l2_inner(f, f), 0.0)))


# ---------------------------------------------------------------------------
# induced geometry


def _symplectic_pullback(grid: GridDescriptor, jac: np.ndarray) -> np.ndarray:
    omega = standard_symplectic_matrix(grid.dim)
    return np.einsum("...ma,mn,...nb->...ab", jac, omega, jac)


def _christoffel(inverse: np.ndarray, derivative: np.ndarray) -> np.ndarray:
    """Gamma^s_{ab} = 1/2 g^{sl} (d_a g_{lb} + d_b g_{la} - d_l g_{ab}) of a
    metric from its inverse and its derivative stack laid out
    derivative[..., c, a, b] = d_c g_{ab}."""
    # S[..., l, a, b] = d_a g_{lb} + d_b g_{la} - d_l g_{ab}
    S = np.moveaxis(derivative, -3, -2) + np.moveaxis(derivative, -3, -1) - derivative
    return 0.5 * (inverse @ S.reshape(S.shape[:-2] + (-1,))).reshape(S.shape)


class HSResidual(NamedTuple):
    """The Hamiltonian-stationarity certificate of an immersion.

    defect: d* alpha_H, zero (to discretization error) exactly on discretely
        Hamiltonian stationary immersions.
    alpha: the mean-curvature one-form alpha_H, components [dim, *sizes].
    h: the induced metric h_ab = g(d_a iota, d_b iota), [*sizes, dim, dim].
    defect_norm, alpha_norm: their L2 norms in the volume density sqrt(det h).
    volume: the rectangle rule on sqrt(det h), halved on quotient grids.
    """

    defect: ScalarField
    alpha: np.ndarray
    h: np.ndarray
    defect_norm: float
    alpha_norm: float
    volume: float


def _mean_curvature(imm: Immersion, metric) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(alpha_H, h, h^-1): alpha_H = omega0(H, d_a iota) with H the
    tension-field mean curvature, and the induced metric h it is built on.

    H^mu = h^{ab} (d_a d_b iota^mu - Gamma^c_ab d_c iota^mu
                   + Gamma^mu_{nu lam} d_a iota^nu d_b iota^lam),
    which is the trace of the second fundamental form of the immersion, hence
    normal-valued; contraction with omega0 gives the Hamiltonian-stationarity
    one-form on the grid.  Sign convention: the round circle of radius a in the
    Euclidean plane gives alpha_H(d_theta) = -1.  One metric jet serves both:
    its G is `metric.value`'s bitwise."""
    grid = imm.grid
    jac = imm.jacobian()
    dd = imm.second_derivatives()
    g, dg = metric.derivative(imm.coords)
    h = np.swapaxes(jac, -1, -2) @ g @ jac
    gamma_a = _christoffel(np.linalg.inv(g), dg)
    hinv = np.linalg.inv(h)
    # dh[..., c, a, b] = d_c h_{ab}
    gamma_l = _christoffel(hinv, np.moveaxis(spectral_gradient(h, grid), 0, -3))
    # each h^ab contraction as one batched product: the (a, b) pair is one
    # axis of length n^2, and the ambient term contracts d iota h^-1 d iota^T
    lead, (d, n) = jac.shape[:-2], jac.shape[-2:]
    hinv_col = hinv.reshape(lead + (n * n, 1))
    trace_l = gamma_l.reshape(lead + (n, n * n)) @ hinv_col  # Gamma^c_ab h^ab
    H = dd.reshape(lead + (d, n * n)) @ hinv_col - jac @ trace_l
    spread = jac @ hinv @ np.swapaxes(jac, -1, -2)
    H += gamma_a.reshape(lead + (d, d * d)) @ spread.reshape(lead + (d * d, 1))
    omega = standard_symplectic_matrix(grid.dim)
    comps = (np.swapaxes(H, -1, -2) @ omega) @ jac  # (*s, 1, n)
    return np.moveaxis(comps[..., 0, :], -1, 0), h, hinv


def _density_norm(square: np.ndarray, density: np.ndarray, weight: float) -> float:
    return float(np.sqrt(max(float(np.sum(square * density) * weight), 0.0)))


def hs_residual(imm: Immersion, metric) -> HSResidual:
    """The stationarity certificate of an immersion in one pass (see
    `HSResidual`): alpha_H and h from one metric jet (`_mean_curvature`),
    then the coordinate codifferential

        d* alpha = - (d_b h^{ab}) alpha_a - h^{ab} d_b alpha_a
                   - 1/2 h^{ab} alpha_a d_b(log det h)

    with spectral derivatives throughout, exact up to aliasing on analytic
    data, and the norms and the volume in the density sqrt(det h).  Raises
    ImmersionError when h is not positive definite.
    """
    grid = imm.grid
    alpha, h, hinv = _mean_curvature(imm, metric)
    det = np.linalg.det(h)
    if np.any(det <= 0):
        raise ImmersionError("induced metric is not positive definite")
    density = np.sqrt(det)
    dhinv = np.moveaxis(spectral_gradient(hinv, grid), 0, -3)  # [..., b, a, c] = d_b h^{ac}
    # [b, a, ...] = d_b alpha_a
    dalpha = np.moveaxis(spectral_gradient(np.moveaxis(alpha, 0, -1), grid), -1, 1)
    dlog = spectral_gradient(np.log(det), grid)  # [b, ...]
    # Explicit loops over the (small) coordinate indices beat einsum gymnastics
    # here for clarity; dim <= 3 in every use.
    defect = np.zeros(grid.sizes, dtype=np.result_type(alpha, hinv))
    alpha_sq = np.zeros(grid.sizes)  # h^{ab} alpha_a alpha_b
    for a in range(grid.dim):
        for b in range(grid.dim):
            defect -= dhinv[..., b, a, b] * alpha[a]
            defect -= hinv[..., a, b] * dalpha[b, a]
            defect -= 0.5 * hinv[..., a, b] * alpha[a] * dlog[b]
            alpha_sq += hinv[..., a, b] * alpha[a] * alpha[b]
    w = grid.node_weight()
    return HSResidual(
        ScalarField(grid, defect, check=False),
        alpha,
        h,
        _density_norm(defect * defect, density, w),
        _density_norm(alpha_sq, density, w),
        float(np.sum(density) * w),
    )
