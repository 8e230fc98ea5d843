"""Action-angle chart around the model torus and the graph volume functional.

The chart Phi(theta, y) = (sqrt(a_j^2 + 2 y_j) e^{i theta_j})_j maps the
cotangent disc bundle of the torus with radii a onto a tubular neighbourhood,
pulling the standard symplectic form back to the canonical one exactly.
Lagrangian graphs over the zero section are exact one-forms df, realized as
the node map theta -> Phi(theta, grad f) with spectral gradients.

The central computation is the volume of such a graph in an arbitrary ambient
metric evaluator together with its exact discrete L^2 gradient.  The gradient
is assembled by the adjoint of the chain rule through the spectral derivative
matrices (which are exactly antisymmetric), so that

    d/ds Vol(f + s h)|_0 = <h, gradient>_{L^2(dV0)}

holds to roundoff for arbitrary grid fields h, where dV0 is the flat model
volume (constant density prod a_j).  Critical points of the discrete
functional are therefore exactly the zeros of the returned residual field.
The whole computation is polynomial/sqrt in the field values and supports
complex-step linearization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ambient import EuclideanMetric
from .errors import ChartDomainError
from .geomcore import GridDescriptor, _deriv_array

__all__ = ["WeinsteinChart", "graph_volume_and_gradient"]


@dataclass(frozen=True)
class WeinsteinChart:
    """Cotangent chart of the model torus with radii a_1..a_n.

    delta bounds the admissible one-form size max_j |df/dtheta_j|; the default
    0.4 * min(a_j^2)/2 keeps the graph comfortably inside the tube where the
    square roots stay well conditioned.
    """

    radii: tuple
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        radii = tuple(float(a) for a in self.radii)
        object.__setattr__(self, "radii", radii)
        if any(a <= 0 for a in radii):
            raise ChartDomainError("chart radii must be positive")
        if self.delta is None:
            object.__setattr__(self, "delta", 0.4 * min(a * a for a in radii) / 2)
        elif self.delta <= 0:
            raise ChartDomainError("delta must be positive")

    @property
    def n(self) -> int:
        return len(self.radii)

    def grid(self, size: int = 32) -> GridDescriptor:
        return GridDescriptor(sizes=(size,) * self.n, periods=(2 * np.pi,) * self.n)

    def flat_density(self) -> float:
        """Constant density of the flat model volume dV0 = prod a_j dtheta."""
        return float(np.prod(self.radii))


def _graph_jets(chart: WeinsteinChart, grid: GridDescriptor, f: np.ndarray):
    """Gradient field, chart point coordinates, and tangent data of a graph."""
    n = chart.n
    if grid.dim != n:
        raise ChartDomainError("grid dimension does not match chart")
    y = np.stack([_deriv_array(f, grid, axis=j) for j in range(n)], axis=-1)  # (*s, n)
    ymax = np.max(np.abs(y.real), axis=tuple(range(grid.dim)))
    if np.any(ymax >= chart.delta):
        raise ChartDomainError(
            f"graph one-form too large for the chart: max |df| = {ymax.max():.4f} "
            f">= delta = {chart.delta:.4f}"
        )
    a2 = np.array([a * a for a in chart.radii])
    r2 = a2 + 2 * y
    r = np.sqrt(r2)
    mesh = grid.meshgrid()
    cos = np.stack([np.cos(m) for m in mesh], axis=-1)  # (*s, n)
    sin = np.stack([np.sin(m) for m in mesh], axis=-1)
    dt = np.result_type(f, float)
    coords = np.zeros(f.shape + (2 * n,), dtype=dt)
    coords[..., 0::2] = r * cos
    coords[..., 1::2] = r * sin
    # partial Phi / partial theta_j at fixed y: slots (2j, 2j+1) = r_j(-sin, cos)
    phi_theta = np.zeros(f.shape + (n, 2 * n), dtype=dt)
    # partial Phi / partial y_j: (cos, sin)/r_j;  second y-derivative: -(cos, sin)/r_j^3
    phi_y = np.zeros_like(phi_theta)
    phi_yy = np.zeros_like(phi_theta)
    for j in range(n):
        phi_theta[..., j, 2 * j] = -r[..., j] * sin[..., j]
        phi_theta[..., j, 2 * j + 1] = r[..., j] * cos[..., j]
        phi_y[..., j, 2 * j] = cos[..., j] / r[..., j]
        phi_y[..., j, 2 * j + 1] = sin[..., j] / r[..., j]
        phi_yy[..., j, 2 * j] = -cos[..., j] / r[..., j] ** 3
        phi_yy[..., j, 2 * j + 1] = -sin[..., j] / r[..., j] ** 3
    # Y[j, a] = d y_j / d theta_a (symmetric Hessian of f)
    Y = np.stack(
        [
            np.stack([_deriv_array(y[..., j], grid, axis=a) for a in range(n)], axis=-1)
            for j in range(n)
        ],
        axis=-2,
    )  # (*s, j, a)
    # tangent vectors T_a = phi_theta_a + sum_j phi_y_j Y_{ja}
    T = phi_theta + np.swapaxes(Y, -1, -2) @ phi_y
    return y, r2, coords, phi_theta, phi_y, phi_yy, Y, T


def graph_volume_and_gradient(
    chart: WeinsteinChart,
    grid: GridDescriptor,
    f_values: np.ndarray,
    metric=None,
    need_gradient: bool = True,
):
    """Volume of the graph of df in the given metric, and its exact L^2 gradient.

    Returns (volume, gradient_values) with the gradient taken with respect to
    the flat model inner product <u, v> = sum_nodes u v * node_weight * prod a.
    Complex f_values propagate through (for complex-step linearization); the
    returned volume is then complex as well.
    """
    f = np.asarray(f_values)
    n = chart.n
    y, r2, coords, phi_theta, phi_y, phi_yy, Y, T = _graph_jets(chart, grid, f)
    if metric is None:
        metric = EuclideanMetric(n)
    if need_gradient:
        G, dG = metric.derivative(coords)
    else:
        G = metric.value(coords)
    Tt = np.swapaxes(T, -1, -2)
    GTt = G @ Tt  # (G T_b)_m as [..., m, b]
    h = T @ GTt
    det = np.linalg.det(h)
    q = np.sqrt(det)
    w = grid.node_weight()
    vol = np.sum(q) * w
    if not need_gradient:
        return vol, None

    hinv = np.linalg.inv(h)
    lead, d = q.shape, 2 * n
    # dT_a/dy_j = delta_{aj} phi_theta_a / r_a^2 + phi_yy_j Y_{ja}
    dTdy = (phi_yy[..., :, None, :] * Y[..., :, :, None]).astype(q.dtype, copy=False)
    for j in range(n):
        dTdy[..., j, j, :] += phi_theta[..., j, :] / r2[..., j, None]
    # sum_{a,b,m} hinv_ab dTdy_jam (G T_b)_m, as dTdy_j : (hinv GT)
    W = hinv @ np.swapaxes(GTt, -1, -2)
    A = dTdy.reshape(lead + (n, n * d)) @ W.reshape(lead + (n * d, 1))
    # d G / d y_j = sum_m phi_y_jm dG_m, paired with T^T hinv T
    M = Tt @ hinv @ T
    dGM = dG.reshape(lead + (d, d * d)) @ M.reshape(lead + (d * d, 1))
    A = q[..., None] * (A + 0.5 * (phi_y @ dGM))[..., 0]
    B = q[..., None, None] * (phi_y @ GTt @ np.swapaxes(hinv, -1, -2))
    P = np.zeros_like(f, dtype=q.dtype)
    for j in range(n):
        P = P - _deriv_array(A[..., j], grid, axis=j)
        for c in range(n):
            P = P + _deriv_array(_deriv_array(B[..., j, c], grid, axis=j), grid, axis=c)
    return vol, P / chart.flat_density()
