"""The linearized stationarity operator: flat models by their Fourier symbol,
perturbed metrics by complex-step assembly.

The operator is the Hessian of the discrete graph-volume functional at the
model critical point (equivalently, the linearization of the volume-gradient
residual at the zero graph).  On the flat torus and on the circle-sphere
quotient it has constant coefficients, so it is diagonal in Fourier space:
`assemble_flat_operator` stores it as its symbol on the admissible modes (the
Nyquist-free band, and on quotient grids the deck-invariant modes).  Applying
it is FFT, multiply, inverse FFT; its eigensolve is a sort of the symbol.

Under a perturbed metric the coefficients vary, and `assemble_perturbed_operator`
assembles the dense matrix column by column by complex-step differentiation of
the exact discrete gradient -- the Hessian of the actual discrete functional
to machine precision, with no step-size error.  At the flat metric the same
assembly is the independent oracle the symbol is tested against.

The analytic references: on the flat torus with radii a the operator acts on
the mode exp(i k.theta) by

    lam(k) = (sum_j k_j^2/a_j^2)^2 - sum_j k_j^2/a_j^4
             + 2 sum_{j<l} k_j k_l / (a_j^2 a_l^2),

and on the circle-sphere model (generalized n, sphere harmonic degree l) by
(k^2 + lam_l - n)^2 + n^2 (k^2 - 1) with lam_l = l(l+n-2).  Both have
seven-dimensional kernels in the default configurations, spanned by the
restrictions of the ambient moment polynomials (rigidity), and nonnegative
spectra (stability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    OperatorSymmetryError,
    SpectralGapError,
    UnsupportedModelError,
)
from .geomcore import GridDescriptor, ScalarField, l2_norm
from .models import CircleSphereModel, TorusModel
from .weinstein import WeinsteinChart, graph_volume_and_gradient

__all__ = [
    "GridOperator",
    "SymbolOperator",
    "SpectralData",
    "mode_mesh",
    "fourier_multiply",
    "assemble_flat_operator",
    "assemble_perturbed_operator",
    "band_limited_basis",
    "torus_multiplier",
    "eigensolve",
    "kernel_dimension",
]

_CS_STEP = 1e-100


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


def mode_mesh(grid: GridDescriptor) -> list[np.ndarray]:
    """Integer wave number along each axis of every np.fft.fftn coefficient."""
    freqs = [np.fft.fftfreq(size, d=1.0 / size) for size in grid.sizes]
    return np.meshgrid(*freqs, indexing="ij")


def fourier_multiply(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Apply a real, even Fourier multiplier (np.fft.fftn layout) to real samples."""
    return np.fft.ifftn(np.fft.fftn(values) * multiplier).real


def _band_mask(grid: GridDescriptor) -> np.ndarray:
    """The faithfully represented modes |k_j| < N_j/2.

    On an even grid the spectral derivative zeroes the unpaired Nyquist mode,
    so fields with frequency N/2 along any axis see a truncated symbol: modes
    whose non-Nyquist part lies in the operator kernel would appear spuriously
    flat.  Grid operators therefore act on this band only.
    """
    inside = [np.abs(k) < size / 2 for k, size in zip(mode_mesh(grid), grid.sizes)]
    return np.logical_and.reduce(inside)


def band_limited_basis(grid: GridDescriptor) -> np.ndarray:
    """Orthonormal node-space basis (nodes x dim) of the Nyquist-free band."""
    stack = np.eye(grid.num_nodes).reshape(grid.sizes + (grid.num_nodes,))
    axes = tuple(range(grid.dim))
    spec = np.fft.fftn(stack, axes=axes)
    spec *= _band_mask(grid)[..., None]
    masked = np.fft.ifftn(spec, axes=axes).real.reshape(grid.num_nodes, -1)
    u, s, _ = np.linalg.svd(masked, full_matrices=False)
    # The mask is an orthogonal projector, so singular values are exactly 1
    # (kept modes) or 0 (cut); 0.5 is a safe threshold.
    return np.ascontiguousarray(u[:, s > 0.5])


def torus_multiplier(radii: Sequence[float], modes: np.ndarray) -> np.ndarray:
    """Analytic symbol of the flat-torus operator on exp(i k.theta)."""
    a2 = np.array([a * a for a in radii])
    k = np.asarray(modes, dtype=float)
    lap = np.sum(k**2 / a2, axis=-1)
    corr = np.sum(k**2 / a2**2, axis=-1)
    cross = (np.sum(k / a2, axis=-1) ** 2 - np.sum(k**2 / a2**2, axis=-1))
    return lap**2 - corr + cross


@dataclass
class SymbolOperator:
    """Constant-coefficient self-adjoint operator stored as its Fourier symbol.

    symbol holds the eigenvalue of every mode exp(i k.theta) in np.fft.fftn
    layout; the operator acts on the admissible modes and maps the others
    (Nyquist, and deck-odd modes on quotient grids) to zero.  weight is the
    model volume measure of one node, as for GridOperator.
    """

    grid: GridDescriptor
    symbol: np.ndarray
    admissible: np.ndarray
    weight: float

    def apply(self, f: ScalarField) -> ScalarField:
        multiplier = np.where(self.admissible, self.symbol, 0.0)
        return ScalarField(self.grid, fourier_multiply(f.values, multiplier), check=False)

    def sorted_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, flat mode indices) of the admissible modes, ascending.

        Ties (k with -k) are broken by mode index, so the order is deterministic.
        """
        modes = np.flatnonzero(self.admissible)
        values = self.symbol.reshape(-1)[modes]
        order = np.lexsort((modes, values))
        return values[order], modes[order]

    def mode_field(self, index: int) -> ScalarField:
        """L^2-normalized real eigenfield of one mode.

        Mode k gives cos(k.theta) when its flat index is below that of -k and
        sin(k.theta) when above, so each pair {k, -k} yields one of each (the
        mode k = 0 gives the constant).
        """
        sizes = self.grid.sizes
        k = np.unravel_index(index, sizes)
        partner = np.ravel_multi_index(tuple(-np.array(k)), sizes, mode="wrap")
        nodes = np.indices(sizes)
        phase = sum(2.0 * np.pi * kj * nodes[j] / sizes[j] for j, kj in enumerate(k))
        values = np.cos(phase) if index <= partner else np.sin(phase)
        fld = ScalarField(self.grid, values, check=False)
        return ScalarField(self.grid, values / l2_norm(fld), check=False)


def assemble_flat_operator(model) -> SymbolOperator:
    """The linearized operator of the model at its stationary configuration."""
    grid = model.grid()
    k = mode_mesh(grid)
    admissible = _band_mask(grid)
    if isinstance(model, TorusModel):
        symbol = torus_multiplier(model.radii, np.stack(k, axis=-1))
        weight = grid.node_weight() * WeinsteinChart(model.radii).flat_density()
    elif isinstance(model, CircleSphereModel):
        # (k^2+l^2)^2 - 2n(k^2+l^2) + n^2 k^2 on exp(i(k s + l phi)); the
        # half-period deck shift multiplies it by (-1)^(k+l).
        lap = k[0] ** 2 + k[1] ** 2
        symbol = lap**2 - 2 * model.n * lap + model.n**2 * k[0] ** 2
        admissible &= (k[0] + k[1]) % 2 == 0
        weight = grid.node_weight()
    else:
        raise UnsupportedModelError(f"no flat operator assembly for {type(model).__name__}")
    return SymbolOperator(grid, symbol, admissible, weight)


def _assemble_graph_hessian(chart: WeinsteinChart, grid: GridDescriptor, metric) -> GridOperator:
    """Hessian of the graph volume at f = 0 by complex-step columns.

    Column k is Im P(i eta e_k)/eta, the exact directional derivative of the
    volume-gradient residual along the k-th node indicator (no step error:
    all operations in the residual are analytic in the field values).
    """
    nn = grid.num_nodes
    f = np.zeros(grid.sizes, dtype=complex)
    cols = np.empty((nn, nn))
    flat = f.reshape(-1)
    for k in range(nn):
        flat[k] = 1j * _CS_STEP
        _, P = graph_volume_and_gradient(chart, grid, f, metric)
        cols[:, k] = (P.imag / _CS_STEP).reshape(-1)
        flat[k] = 0.0
    weight = grid.node_weight() * chart.flat_density()
    basis = band_limited_basis(grid)
    cols = basis.T @ cols @ basis
    return GridOperator(grid, cols, weight, basis_matrix=basis)


def assemble_perturbed_operator(chart: WeinsteinChart, grid: GridDescriptor, metric) -> GridOperator:
    """Linearization of the scaled-metric residual at the zero graph.

    With metric None this is the flat Hessian, the dense oracle for the symbol
    of `assemble_flat_operator`.
    """
    return _assemble_graph_hessian(chart, grid, metric).symmetrized()


def kernel_dimension(
    eigenvalues: np.ndarray, kernel_tol: float = 1e-5, gap_ratio: float = 100.0
) -> int:
    """Number of eigenvalues (ascending) below kernel_tol in magnitude.

    Raises SpectralGapError unless the next eigenvalue clears gap_ratio times
    the tolerance, so the count is a certified kernel dimension.
    """
    k = int(np.sum(np.abs(eigenvalues) < kernel_tol))
    if k < len(eigenvalues):
        nxt = float(np.abs(eigenvalues[k]))
        if nxt < gap_ratio * kernel_tol:
            raise SpectralGapError(
                f"no clear spectral gap: |lambda_{k}| = {nxt:.3e} "
                f"< {gap_ratio} * {kernel_tol}"
            )
    return k


@dataclass
class SpectralData:
    operator: GridOperator | SymbolOperator
    eigenvalues: np.ndarray
    eigenfields: list
    kernel_tol: float = 1e-5
    gap_ratio: float = 100.0

    def kernel_size(self) -> int:
        return kernel_dimension(self.eigenvalues, self.kernel_tol, self.gap_ratio)


def eigensolve(
    op: GridOperator | SymbolOperator, count: Optional[int] = None, symmetry_tol: float = 1e-8
) -> SpectralData:
    """The lowest `count` eigenpairs (all when None), eigenvalues ascending.

    A SymbolOperator is already diagonal: its eigenvalues are the sorted
    symbol and its eigenfields the real Fourier modes.  A GridOperator is
    diagonalized by a dense symmetric solve.  Eigenfields are returned
    L^2-orthonormalized against the grid weight.
    """
    if isinstance(op, SymbolOperator):
        w, modes = op.sorted_modes()
        fields = [op.mode_field(i) for i in modes[:count]]
        return SpectralData(op, w[:count], fields)
    if op.asymmetry() > symmetry_tol:
        raise OperatorSymmetryError("operator asymmetric beyond tolerance; refusing eigensolve")
    w, V = np.linalg.eigh(0.5 * (op.matrix + op.matrix.T))
    w, V = w[:count], V[:, :count]
    fields = []
    for i in range(V.shape[1]):
        vals = op.to_node_values(V[:, i])
        fld = ScalarField(op.grid, vals, check=False)
        fields.append(ScalarField(op.grid, vals / l2_norm(fld), check=False))
    return SpectralData(op, np.asarray(w, dtype=float), fields)
