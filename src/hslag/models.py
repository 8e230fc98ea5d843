"""Model Hamiltonian stationary Lagrangians and their analytic spectra.

Two model families:

* product tori (circle of radius a_j in each complex coordinate plane),
* the quotient circle-sphere Lagrangian: the image of
  (s, x) -> (x_1 e^{is}, ..., x_n e^{is}) on S^1 x S^{n-1} modulo the free Z2
  action (s, x) ~ (s + pi, -x).  For n = 2 it is realized on a covering
  (s, phi) grid with the half-period shift identification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedModelError
from .geomcore import GridDescriptor, Immersion

__all__ = [
    "TorusModel",
    "CircleSphereModel",
    "clifford_torus",
    "circle_sphere_lagrangian",
    "circle_sphere_spectrum",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusModel:
    """Product of round circles with the given radii, and the grid of
    grid_size nodes per angle that its fields live on, built once."""

    radii: tuple[float, ...]
    grid_size: int = 32
    _grid: GridDescriptor = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.radii) < 1 or any(r <= 0 for r in self.radii):
            raise UnsupportedModelError("radii must be positive")
        grid = GridDescriptor(sizes=(self.grid_size,) * self.n, periods=(TWO_PI,) * self.n)
        object.__setattr__(self, "_grid", grid)

    @property
    def n(self) -> int:
        return len(self.radii)

    @property
    def delta(self) -> float:
        """Bound on the admissible one-form size max_j |df/dtheta_j|:
        0.4 * min(a_j^2)/2 keeps the graph comfortably inside the tube where
        the chart's square roots stay well conditioned."""
        return 0.4 * min(a * a for a in self.radii) / 2

    def flat_density(self) -> float:
        """Constant density of the flat model volume dV0 = prod a_j dtheta."""
        return float(np.prod(self.radii))

    def grid(self) -> GridDescriptor:
        return self._grid


@dataclass(frozen=True)
class CircleSphereModel:
    """(S^1 x S^{n-1}) / Z2 model; grids are implemented for n = 2 only."""

    n: int = 2
    grid_size: int = 32

    def __post_init__(self) -> None:
        if self.n < 2:
            raise UnsupportedModelError("circle-sphere model needs n >= 2")

    def grid(self) -> GridDescriptor:
        if self.n != 2:
            raise UnsupportedModelError(
                "grids for the circle-sphere model exist only at n = 2; "
                "its spectrum remains available analytically"
            )
        return GridDescriptor(
            sizes=(self.grid_size,) * 2,
            periods=(TWO_PI, TWO_PI),
            quotient=(True, True),
        )


def clifford_torus(model: TorusModel) -> Immersion:
    """theta -> (a_1 cos t1, a_1 sin t1, ..., a_n cos tn, a_n sin tn)."""
    grid = model.grid()
    mesh = grid.meshgrid()
    coords = np.empty(grid.sizes + (2 * model.n,))
    for j, a in enumerate(model.radii):
        coords[..., 2 * j] = a * np.cos(mesh[j])
        coords[..., 2 * j + 1] = a * np.sin(mesh[j])
    return Immersion(grid, coords)


def circle_sphere_lagrangian(model: CircleSphereModel) -> Immersion:
    """(s, phi) -> (cos phi e^{is}, sin phi e^{is}) on the covering torus.

    The covering map is 2:1 onto the quotient Lagrangian; the grid carries the
    half-period identification (s, phi) ~ (s + pi, phi + pi), under which the
    coordinates are exactly invariant.
    """
    grid = model.grid()
    s, phi = grid.meshgrid()
    x1, x2 = np.cos(phi), np.sin(phi)
    coords = np.stack(
        [x1 * np.cos(s), x1 * np.sin(s), x2 * np.cos(s), x2 * np.sin(s)], axis=-1
    )
    return Immersion(grid, coords)


def _harm(n: int, l: int) -> int:
    """dim H_l(S^{n-1}) = C(l+n-1, l) - C(l+n-3, l-2)."""
    a = math.comb(l + n - 1, l)
    b = math.comb(l + n - 3, l - 2) if l >= 2 else 0
    return a - b


def circle_sphere_spectrum(
    n: int, k_max: int, l_max: int
) -> list[tuple[int, int, int, float]]:
    """Analytic spectrum of the stability operator on the circle-sphere model.

    Modes are cos(ks) phi_l, sin(ks) phi_l with phi_l a degree-l spherical
    harmonic, subject to the quotient parity k + l even.  Each admissible (k, l)
    contributes eigenvalue

        (k^2 + lam_l - n)^2 + n^2 (k^2 - 1),      lam_l = l (l + n - 2),

    with multiplicity (1 if k = 0 else 2) * dim H_l(S^{n-1}).
    """
    if n < 2:
        raise UnsupportedModelError("spectrum defined for n >= 2")
    rows = []
    for k in range(k_max + 1):
        for l in range(l_max + 1):
            if (k + l) % 2 != 0:
                continue
            lam = l * (l + n - 2)
            eig = (k * k + lam - n) ** 2 + n * n * (k * k - 1)
            mult = (1 if k == 0 else 2) * _harm(n, l)
            rows.append((k, l, mult, float(eig)))
    return rows
