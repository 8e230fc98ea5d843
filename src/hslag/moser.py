"""Standalone Moser-flow verifier: normalizing a symplectic form on a ball.

Given a closed perturbation omega of the constant form omega0 on a ball B_R
(with omega(0) = omega0), the linear interpolation omega^s = (1-s) omega0 +
s omega is symplectic for every s when the perturbation is small.  The flow of
the time-dependent field v^s defined by

    v^s .! omega^s = zeta,      d zeta = omega0 - omega,

carries omega back to omega0: the time-1 map phi satisfies phi^* omega =
omega0.  The primitive zeta comes from the radial homotopy (cone) formula

    zeta(z) = + integral_0^1 s * (omega0 - omega)(s z)(z, .) ds,

which vanishes to second order at the origin, so phi fixes 0 with d phi|_0 = I.
(The sign: applying the formula to a constant 2-form sigma gives the primitive
z -> sigma(z, .)/2, whose exterior derivative is +sigma.)

The integral is evaluated by 8-node Gauss-Legendre quadrature (exact whenever
the form has polynomial coefficients of degree <= 13), and the trajectories by
classical RK4 over a fixed uniform grid in s, with an adaptive driver that
doubles the step count until two successive resolutions agree.

Everything here is an independent verifier for the chart normal form: the main
pipeline uses exact affine Darboux charts and never calls this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChartDomainError, ConfigError, RankDeficiencyError
from .geomcore import standard_symplectic_matrix

__all__ = [
    "QuadraticPerturbedForm",
    "homotopy_primitive",
    "moser_vector_field",
    "flow_map",
    "pullback_values",
    "moser_flow",
    "MoserReport",
]

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GAUSS_NODES = 0.5 * (_GAUSS_NODES + 1.0)  # map [-1, 1] -> [0, 1]
_GAUSS_WEIGHTS = 0.5 * _GAUSS_WEIGHTS

# moser_flow's ball radius R and sample count, the closedness tolerance of the
# form, and the agreement at which the RK4 step doubling stops
_FLOW_RADIUS = 1.0
_FLOW_SAMPLES = 24
_CLOSED_TOL = 1e-8
_ODE_TOL = 1e-10
# |det| of the interpolated form below which the flow counts as degenerate,
# and the step of the central differences of the time-1 map
_DET_FLOOR = 1e-6
_FD_STEP = 1e-4


class QuadraticPerturbedForm:
    """omega0 + d[(c/2)|z|^2 lambda0], lambda0 = omega0(z, .) the linear primitive.

    An exact closed perturbation of omega0 of conformal type: its components
    are (1 + c|z|^2) omega0 plus the antisymmetric rank-two correction that
    makes the whole form exactly closed,

        omega_{mu nu}(z) = (1 + c|z|^2) (Omega0)_{mu nu}
                           + c [z_mu (z^T Omega0)_nu - z_nu (z^T Omega0)_mu].

    Coefficients are quadratic polynomials, so the discrete closedness check
    and the quadrature of the homotopy primitive are both exact.
    """

    def __init__(self, n: int, c: float = 0.1):
        self.n = n
        self.c = float(c)
        self.matrix = standard_symplectic_matrix(n)

    def value(self, points: np.ndarray) -> np.ndarray:
        z = np.asarray(points, dtype=float)
        om = self.matrix
        zo = np.einsum("...m,mn->...n", z, om)  # (z^T Omega0)_nu
        r2 = np.einsum("...m,...m->...", z, z)
        out = (1.0 + self.c * r2)[..., None, None] * om
        out = out + self.c * (z[..., :, None] * zo[..., None, :] - z[..., None, :] * zo[..., :, None])
        return out


def _closedness_defect(form, points: np.ndarray, h: float = 1e-4) -> float:
    """max |(d omega)_{mu nu rho}| by central differences at the points."""
    points = np.asarray(points, dtype=float)
    d = points.shape[-1]
    grad = np.empty(points.shape[:-1] + (d, d, d))  # [..., mu, nu, rho] = d_mu omega_{nu rho}
    for mu in range(d):
        e = np.zeros(d)
        e[mu] = h
        grad[..., mu, :, :] = (form.value(points + e) - form.value(points - e)) / (2 * h)
    dom = grad + np.moveaxis(grad, (-3, -2, -1), (-2, -1, -3)) + np.moveaxis(
        grad, (-3, -2, -1), (-1, -3, -2)
    )
    return float(np.max(np.abs(dom)))


def homotopy_primitive(form, points: np.ndarray) -> np.ndarray:
    """zeta(z) = integral_0^1 s (omega0 - omega)(sz)(z, .) ds (cone formula).

    Satisfies d zeta = omega0 - omega for closed omega, and zeta = O(|z|^2).
    """
    z = np.asarray(points, dtype=float)
    om0 = standard_symplectic_matrix(z.shape[-1] // 2)
    zeta = np.zeros_like(z)
    for s, w in zip(_GAUSS_NODES, _GAUSS_WEIGHTS):
        diff = om0 - form.value(s * z)
        zeta = zeta + (w * s) * np.einsum("...m,...mn->...n", z, diff)
    return zeta


def moser_vector_field(form, s: float, points: np.ndarray) -> np.ndarray:
    """v^s with v^s .! omega^s = zeta, omega^s = (1-s) omega0 + s omega."""
    z = np.asarray(points, dtype=float)
    om0 = standard_symplectic_matrix(z.shape[-1] // 2)
    oms = (1.0 - s) * om0 + s * form.value(z)
    det = np.linalg.det(oms)
    if np.min(np.abs(det)) < _DET_FLOOR:
        raise RankDeficiencyError(
            f"interpolated form degenerates along the flow (|det| = {np.min(np.abs(det)):.3e})"
        )
    zeta = homotopy_primitive(form, z)
    return np.linalg.solve(np.swapaxes(oms, -1, -2), zeta[..., None])[..., 0]


def flow_map(
    form,
    points: np.ndarray,
    steps: int = 64,
    radius: Optional[float] = None,
) -> np.ndarray:
    """Time-1 map of dz/ds = v^s(z) by classical RK4 with uniform steps."""
    z = np.asarray(points, dtype=float).copy()
    ds = 1.0 / steps
    for k in range(steps):
        s = k * ds
        k1 = moser_vector_field(form, s, z)
        k2 = moser_vector_field(form, s + ds / 2, z + ds / 2 * k1)
        k3 = moser_vector_field(form, s + ds / 2, z + ds / 2 * k2)
        k4 = moser_vector_field(form, s + ds, z + ds * k3)
        z = z + ds / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if radius is not None and np.max(np.linalg.norm(z, axis=-1)) > radius:
            raise ChartDomainError("Moser trajectory left the validity ball")
    return z


def pullback_values(form, points: np.ndarray, images: np.ndarray, steps: int) -> np.ndarray:
    """(phi^1)^* omega at each point, with d phi by central differences.

    images are the points' images under the time-1 map `flow_map(form,
    points, steps)`, which the caller already has."""
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


@dataclass
class MoserReport:
    samples: np.ndarray
    images: np.ndarray
    steps: int
    pullback_defect: float
    origin_defect: float
    identity_defect: float
    closedness_defect: float


def moser_flow(form, n: int, seed: int = 0) -> MoserReport:
    """Integrate the normalizing flow and report its defects on B_{R/2}.

    Preconditions checked: closedness of the form (<= _CLOSED_TOL by central
    differences), omega(0) = omega0, and nondegeneracy of the interpolation
    along the flow.  The RK4 step count is chosen adaptively, doubling from
    16 until two resolutions agree to _ODE_TOL (or 512 is hit).  Samples are
    drawn from the interior ball B_{R/2}, R = _FLOW_RADIUS, so trajectories
    stay well inside B_R.
    """
    from .ambient import ball_samples

    om0 = standard_symplectic_matrix(n)
    z = ball_samples(2 * n, _FLOW_RADIUS / 2, _FLOW_SAMPLES, seed)
    if _closedness_defect(form, z) > _CLOSED_TOL:
        raise ConfigError("perturbed form is not closed to tolerance")
    if np.max(np.abs(form.value(np.zeros(2 * n)) - om0)) > 1e-12:
        raise ConfigError("perturbed form does not equal omega0 at the origin")

    steps = 16
    images = flow_map(form, z, steps, radius=_FLOW_RADIUS)
    while steps < 512:
        finer = flow_map(form, z, 2 * steps, radius=_FLOW_RADIUS)
        converged = np.max(np.abs(finer - images)) <= _ODE_TOL
        images, steps = finer, 2 * steps
        if converged:
            break
    pb = pullback_values(form, z, images, steps)
    pullback_defect = float(np.max(np.abs(pb - om0)))
    origin = flow_map(form, np.zeros(2 * n), steps)
    origin_defect = float(np.max(np.abs(origin)))
    d = 2 * n
    jac = np.empty((d, d))
    for mu in range(d):
        e = np.zeros(d)
        e[mu] = _FD_STEP
        jac[:, mu] = (flow_map(form, e, steps) - flow_map(form, -e, steps)) / (2 * _FD_STEP)
    identity_defect = float(np.max(np.abs(jac - np.eye(d))))
    return MoserReport(
        samples=z,
        images=images,
        steps=steps,
        pullback_defect=pullback_defect,
        origin_defect=origin_defect,
        identity_defect=identity_defect,
        closedness_defect=_closedness_defect(form, z),
    )
