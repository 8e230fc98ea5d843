"""The linearized stationarity operator of the flat models, stored as its
Fourier symbol.

The operator is the Hessian of the discrete graph-volume functional at the
model critical point (equivalently, the linearization of the volume-gradient
residual at the zero graph).  On the flat torus and on the circle-sphere
quotient it has constant coefficients, so it is diagonal in Fourier space:
a `SymbolOperator` holds its eigenvalue on every mode and acts on the
admissible ones (the Nyquist-free band, and on quotient grids the
deck-invariant modes).  Its eigensolve is a sort of the symbol.

`assemble_flat_operator` writes the symbol down from the analytic formulas
below.  `probe_flat_operator` reads it off the discrete volume itself, at any
n: the flat volume is invariant under grid shifts, so its Hessian is
circulant, and one complex-step Hessian-vector product on the band-projected
delta at node 0 has every mode's eigenvalue as its Fourier transform.

The analytic references: on the flat torus with radii a the operator acts on
the mode exp(i k.theta) by

    lam(k) = (sum_j k_j^2/a_j^2)^2 - sum_j k_j^2/a_j^4
             + 2 sum_{j<l} k_j k_l / (a_j^2 a_l^2),

and on the circle-sphere model (generalized n, sphere harmonic degree l) by
(k^2 + lam_l - n)^2 + n^2 (k^2 - 1) with lam_l = l(l+n-2).  Both have
seven-dimensional kernels at n = 2 (the torus with distinct radii n^2 + n + 1,
13 at n = 3), spanned by the restrictions of the ambient moment polynomials
(rigidity), and nonnegative spectra (stability).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .ambient import ChartMetric, EuclideanMetric, UnitaryFrame
from .errors import SpectralGapError, UnsupportedModelError
from .geomcore import (
    GridDescriptor,
    ScalarField,
    _band_of,
    _inverse,
    _negated_modes,
    band_mask,
    mode_mesh,
)
from .models import CircleSphereModel, TorusModel
from .weinstein import graph_volume_and_gradient

__all__ = [
    "SymbolOperator",
    "SpectralData",
    "assemble_flat_operator",
    "probe_flat_operator",
    "torus_multiplier",
    "eigensolve",
    "kernel_dimension",
]

# The complex step of the Hessian-vector product.  Its O(step^2) error is far
# below roundoff at any small step; at 1e-100 the roundoff that the 2-D
# spectral derivatives spread over the grid (about 1e-116) multiplies into
# subnormal numbers, whose arithmetic is slow.
_CS_STEP = 1e-20
# kernel_dimension counts eigenvalues below _KERNEL_TOL and certifies the
# count only when the next one clears _GAP_RATIO times it
_KERNEL_TOL = 1e-5
_GAP_RATIO = 100.0


def _real_modes(grid: GridDescriptor, indices: np.ndarray) -> np.ndarray:
    """Real Fourier fields of the modes at flat `mode_mesh` indices, unnormalized,
    stacked on a leading axis.

    Mode k gives cos(k.theta) when its flat index is below that of -k and
    sin(k.theta) when above, so each pair {k, -k} yields one of each (the
    mode k = 0 gives the constant).  The phases take the signed wave numbers
    of `mode_mesh`, so a negative one stays under 2 pi |k_j| in size.
    """
    sizes = grid.sizes
    indices = np.asarray(indices, dtype=int)
    k = [kj - size * (2 * kj >= size) for kj, size in zip(np.unravel_index(indices, sizes), sizes)]
    partner = np.ravel_multi_index(tuple(-kj for kj in k), sizes, mode="wrap")
    nodes = np.ix_(*(np.arange(size) for size in sizes))
    lead = (slice(None),) + (None,) * len(sizes)
    phase = sum(2.0 * np.pi * kj[lead] * nodes[j] / sizes[j] for j, kj in enumerate(k))
    cos = indices <= partner
    phase[cos] = np.cos(phase[cos])
    phase[~cos] = np.sin(phase[~cos])
    return phase


def _unit_modes(grid: GridDescriptor, indices: np.ndarray) -> np.ndarray:
    """The `_real_modes` fields, each divided by its `l2_norm`."""
    fields = _real_modes(grid, indices)
    squares = np.sum((fields * fields).reshape(len(fields), grid.num_nodes), axis=1)
    squares *= grid.node_weight()
    fields /= np.sqrt(squares).reshape((-1,) + (1,) * grid.dim)
    return fields


def torus_multiplier(radii: Sequence[float], modes) -> np.ndarray:
    """Analytic symbol of the flat-torus operator on exp(i k.theta).

    modes holds the wave numbers on a leading axis, k_j for radius a_j (the
    `mode_mesh` list, or an [n, ...] array), so each sum over j runs over
    whole arrays."""
    k = np.asarray(modes, dtype=float)
    a2 = np.array([a * a for a in radii]).reshape((-1,) + (1,) * (k.ndim - 1))
    k2 = k**2
    lap = np.sum(k2 / a2, axis=0)
    corr = np.sum(k2 / a2**2, axis=0)
    return lap**2 - corr + (np.sum(k / a2, axis=0) ** 2 - corr)


@dataclass
class SymbolOperator:
    """Constant-coefficient self-adjoint operator stored as its Fourier symbol.

    symbol holds the eigenvalue of every mode exp(i k.theta) on the
    `mode_mesh` layout; the operator acts on the admissible modes and maps
    the others (Nyquist, and deck-odd modes on quotient grids) to zero.
    """

    grid: GridDescriptor
    symbol: np.ndarray
    admissible: np.ndarray

    def sorted_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, flat mode indices) of the admissible modes, ascending.

        Ties (k with -k) are broken by mode index, so the order is deterministic.
        """
        modes = np.flatnonzero(self.admissible)
        values = self.symbol.reshape(-1)[modes]
        order = np.lexsort((modes, values))
        return values[order], modes[order]


def assemble_flat_operator(model) -> SymbolOperator:
    """The linearized operator of the model at its stationary configuration."""
    grid = model.grid()
    k = mode_mesh(grid)
    admissible = _band_of(k, grid.sizes)
    if isinstance(model, TorusModel):
        symbol = torus_multiplier(model.radii, k)
    elif isinstance(model, CircleSphereModel):
        # (k^2+l^2)^2 - 2n(k^2+l^2) + n^2 k^2 on exp(i(k s + l phi)); the
        # half-period deck shift multiplies it by (-1)^(k+l).
        lap = k[0] ** 2 + k[1] ** 2
        symbol = lap**2 - 2 * model.n * lap + model.n**2 * k[0] ** 2
        admissible &= (k[0] + k[1]) % 2 == 0
    else:
        raise UnsupportedModelError(f"no flat operator assembly for {type(model).__name__}")
    return SymbolOperator(grid, symbol, admissible)


def probe_flat_operator(model: TorusModel) -> SymbolOperator:
    """The flat torus's operator with the symbol read off the discrete volume.

    The Hessian is circulant, so its product with the band-projected delta
    at node 0, one complex-step gradient volume, has the symbol on the band
    as its Fourier transform.  The volume returns that transform as a half
    spectrum; the symbol is real and even, so its other half is the first
    one mirrored, which keeps the kernel modes at the volume's own roundoff
    (a transform back and forth would add roundoff of the size of the
    largest mode).  Only the flat Hessian is shift-invariant, so there is no
    metric argument: the volume runs in EuclideanMetric's identity chart.
    """
    grid, d = model.grid(), 2 * model.n
    flat = ChartMetric(EuclideanMetric(model.n), UnitaryFrame(np.zeros(d), np.eye(d)), 1.0)
    admissible = band_mask(grid)
    last = grid.sizes[-1]
    delta = _inverse(admissible[..., : last // 2 + 1].astype(float), grid, False)
    _, P_hat, _ = graph_volume_and_gradient(model, 1j * _CS_STEP * delta, flat)
    half = P_hat[1].real / _CS_STEP
    negated = (Ellipsis,) + _negated_modes(grid) + (slice(None),)
    symbol = np.concatenate([half, np.flip(half[..., 1 : last // 2], axis=-1)[negated]], axis=-1)
    return SymbolOperator(grid, symbol, admissible)


def kernel_dimension(eigenvalues: np.ndarray) -> int:
    """Number of eigenvalues (ascending) below _KERNEL_TOL in magnitude.

    Raises SpectralGapError unless the next eigenvalue clears _GAP_RATIO
    times the tolerance, so the count is a certified kernel dimension.
    """
    k = int(np.sum(np.abs(eigenvalues) < _KERNEL_TOL))
    if k < len(eigenvalues):
        nxt = float(np.abs(eigenvalues[k]))
        if nxt < _GAP_RATIO * _KERNEL_TOL:
            raise SpectralGapError(
                f"no clear spectral gap: |lambda_{k}| = {nxt:.3e} "
                f"< {_GAP_RATIO} * {_KERNEL_TOL}"
            )
    return k


@dataclass
class SpectralData:
    eigenvalues: np.ndarray
    eigenfields: list


def eigensolve(op: SymbolOperator, count: Optional[int] = None) -> SpectralData:
    """The lowest `count` eigenpairs (all when None), eigenvalues ascending:
    the sorted symbol and the L^2-normalized real Fourier modes."""
    w, modes = op.sorted_modes()
    fields = _unit_modes(op.grid, modes[:count])
    return SpectralData(w[:count], [ScalarField(op.grid, f, check=False) for f in fields])
