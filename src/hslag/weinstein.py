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

A chart metric g(z) = u^T G(p + t u z) u enters only through the graph's
thin tangent data, so the volume is assembled in the ambient metric's own
frame: the tangent vectors are pushed through the chart's affine map once,
the base metric is linearized at the embedded points, and the induced
metric, its inverse and the contraction dG : M are formed there, with no
pullback of G or dG.  The gradient reads the metric's derivative only
through that contraction, so it takes it from the linearization's reverse
sweep and never forms dG (see `SymplecticExpMetric.linearize`).  The metric
is a ChartMetric; flat space is EuclideanMetric's identity chart (p = 0,
u = I, t = 1).  The n x n induced metric is inverted by elimination on node
vectors, and the per-grid tables (node trigonometry, spectral symbols, node
weight) are built once per grid.

The chart's Jacobian is diagonal per pair of slots (2j, 2j+1): d Phi/d theta_j
is r_j (-sin, cos)(theta_j) and d Phi/d y_j is (cos, sin)(theta_j) / r_j.  So
the chart enters as the per-node scalars r_j, cos(theta_j)/r_j and
sin(theta_j)/r_j, and the tangents and the chart terms of the gradient are
formed elementwise, with no dense chart Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ambient import ChartMetric
from .errors import ChartDomainError
from .geomcore import (
    _GRID_TABLES,
    GridDescriptor,
    _forward,
    _hermitian_part,
    _inverse,
    derivative_multipliers,
)

__all__ = ["WeinsteinChart", "graph_volume_and_gradient"]


@dataclass(frozen=True)
class WeinsteinChart:
    """Cotangent chart of the model torus with radii a_1..a_n, over the
    grids of `TorusModel`."""

    radii: tuple

    def __post_init__(self) -> None:
        radii = tuple(float(a) for a in self.radii)
        object.__setattr__(self, "radii", radii)
        if any(a <= 0 for a in radii):
            raise ChartDomainError("chart radii must be positive")

    @property
    def n(self) -> int:
        return len(self.radii)

    @property
    def delta(self) -> float:
        """Bound on the admissible one-form size max_j |df/dtheta_j|:
        0.4 * min(a_j^2)/2 keeps the graph comfortably inside the tube where
        the square roots stay well conditioned."""
        return 0.4 * min(a * a for a in self.radii) / 2

    def flat_density(self) -> float:
        """Constant density of the flat model volume dV0 = prod a_j dtheta."""
        return float(np.prod(self.radii))


@dataclass(frozen=True)
class _GridTables:
    """What a graph volume needs of its grid alone, built once per grid.

    cos and sin are the node angles' trigonometry [*sizes, n]; pairs are the
    index pairs j <= a of the Hessian of f; jet_symbols the multipliers
    i k_j, then i k_j i k_a per pair, stacked on a leading axis over the
    `_forward` layout, that give y and the Hessian from one multiply and one
    transform; p_symbols -i k_j, then i k_j i k_c over all (j, c), that sum
    the residual's divergence terms in Fourier space."""

    cos: np.ndarray
    sin: np.ndarray
    pairs: tuple
    jet_symbols: np.ndarray
    p_symbols: tuple
    weight: float


@lru_cache(maxsize=_GRID_TABLES)
def _grid_tables(grid: GridDescriptor) -> _GridTables:
    n, ik = grid.dim, derivative_multipliers(grid)
    mesh = grid.meshgrid()
    cos = np.stack([np.cos(m) for m in mesh], axis=-1)
    sin = np.stack([np.sin(m) for m in mesh], axis=-1)
    pairs = tuple((j, a) for j in range(n) for a in range(j, n))
    half = grid.sizes[:-1] + (grid.sizes[-1] // 2 + 1,)
    jet_symbols = np.array(
        [np.broadcast_to(k, half) for k in ik + tuple(ik[j] * ik[a] for j, a in pairs)]
    )
    p_symbols = tuple(-k for k in ik) + tuple(ik[j] * ik[c] for j in range(n) for c in range(n))
    for table in (cos, sin, jet_symbols) + p_symbols:
        table.flags.writeable = False
    return _GridTables(cos, sin, pairs, jet_symbols, p_symbols, grid.node_weight())


def _chart_points(chart: WeinsteinChart, grid: GridDescriptor, y: np.ndarray):
    """(r^2, r, coords) of the chart points Phi(theta, y) over the grid nodes:
    r_j^2 = a_j^2 + 2 y_j and coords (r_j cos theta_j, r_j sin theta_j).
    y is [..., *sizes, n]; leading axes are a stack of fields."""
    tables = _grid_tables(grid)
    r2 = np.array([a * a for a in chart.radii]) + 2 * y
    r = np.sqrt(r2)
    coords = np.empty(y.shape[:-1] + (2 * chart.n,), dtype=r.dtype)
    coords[..., 0::2] = r * tables.cos
    coords[..., 1::2] = r * tables.sin
    return r2, r, coords


def _graph_jets(chart: WeinsteinChart, grid: GridDescriptor, f: np.ndarray):
    """Chart data of the graph of df over the grid nodes, as per-node scalars.

    Returns (r2, r, cos_r, sin_r, coords, Y, T): r_j^2 = a_j^2 + 2 d_j f, r_j,
    cos(theta_j)/r_j and sin(theta_j)/r_j, the chart points, the Hessian
    Y[j, a] = d_j d_a f, and the tangent vectors T_a = d_a Phi(theta, df).
    The chart's Jacobian is diagonal per pair of slots: d Phi/d theta_j is
    r_j (-sin, cos) and d Phi/d y_j is (cos, sin)/r_j in slots (2j, 2j+1), so
    T[a, 2j] = Y_ja cos_j/r_j - delta_aj r_j sin_j and
    T[a, 2j+1] = Y_ja sin_j/r_j + delta_aj r_j cos_j, formed elementwise."""
    n = chart.n
    if grid.dim != n:
        raise ChartDomainError("grid dimension does not match chart")
    tables = _grid_tables(grid)
    # y_j = d_j f and the Hessian Y[j, a] = d_j d_a f from one transform of f;
    # a complex f's spectrum carries its split parts on an axis of its own
    spec = _forward(f, grid)
    symbols = tables.jet_symbols
    symbols = symbols.reshape(symbols.shape[:1] + (1,) * (spec.ndim - grid.dim) + symbols.shape[1:])
    derivs = _inverse(symbols * spec, grid, np.iscomplexobj(f))
    ymax = np.max(np.abs(derivs[:n].real))
    if ymax >= chart.delta:
        raise ChartDomainError(
            f"graph one-form too large for the chart: max |df| = {ymax:.4f} "
            f">= delta = {chart.delta:.4f}"
        )
    y = np.stack(list(derivs[:n]), axis=-1)  # (*s, n)
    r2, r, coords = _chart_points(chart, grid, y)
    cos, sin = tables.cos, tables.sin
    cos_r, sin_r = cos / r, sin / r
    Y = np.empty(f.shape + (n, n), dtype=derivs.dtype)  # (*s, j, a)
    for (j, a), D in zip(tables.pairs, derivs[n:]):
        Y[..., j, a] = Y[..., a, j] = D
    Yt = np.swapaxes(Y, -1, -2)  # (*s, a, j)
    T = np.empty(f.shape + (n, 2 * n), dtype=coords.dtype)
    T[..., 0::2] = Yt * cos_r[..., None, :]
    T[..., 1::2] = Yt * sin_r[..., None, :]
    diagonal = np.arange(n)
    T[..., diagonal, 2 * diagonal] -= r * sin
    T[..., diagonal, 2 * diagonal + 1] += r * cos
    return r2, r, cos_r, sin_r, coords, Y, T


def _small_inverse(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h^-1, det h) for a stack of small symmetric positive definite
    matrices h[..., n, n].

    Gauss-Jordan elimination without pivoting (the pivots of a positive
    definite matrix are positive), with every entry a vector over the stack:
    O(n^3) vector operations and no per-matrix call.  The elimination runs
    on a copy with the stack axes last, so each entry is one contiguous
    vector; the inverse comes back as a view in h's layout.  det is the
    product of the pivots.  The arithmetic is analytic in h, so a complex
    step through it stays exact."""
    n = h.shape[-1]
    inv = np.moveaxis(h, (-2, -1), (0, 1)).copy()  # (n, n, *stack)
    for k in range(n):
        pivot = inv[k, k].copy()
        det = pivot if k == 0 else det * pivot
        inv[k, k] = 1.0
        inv[k] /= pivot
        for i in range(n):
            if i != k:
                factor = inv[i, k].copy()
                inv[i, k] = 0.0
                inv[i] -= factor * inv[k]
    return np.moveaxis(inv, (0, 1), (-2, -1)), det


def graph_volume_and_gradient(
    chart: WeinsteinChart,
    grid: GridDescriptor,
    f_values: np.ndarray,
    metric: ChartMetric,
    need_gradient: bool = True,
):
    """Volume of the graph of df in the given metric, and its exact L^2 gradient.

    Returns (volume, gradient_spectrum, affine_sensitivity) with the gradient
    taken with respect to the flat model inner product
    <u, v> = sum_nodes u v * node_weight * prod a.  The gradient comes as the
    `_forward`-layout half spectrum the volume assembles it in (split real
    and imaginary parts for complex f); `_inverse` gives its grid values.
    affine_sensitivity is a function of no arguments that returns the pair
    (dvol/db, dvol/dA) at b = 0, A = 0 of the volume at fixed f in the
    affinely moved metric

        G'(z) = (I + A)^T G((I + A) z + b) (I + A),

        dvol/db_k  = sum_nodes w (q/2) <M, dG_k>,
        dvol/dA_kl = sum_nodes w (q/2) (2 (G M)_kl + <M, dG_k> z_l),

    with w the node weight, q the volume density, M = T^T h^-1 T and z the
    graph's chart coordinates.  A moved chart frame pulls its chart metric back by exactly
    such a map, so these give the frame derivative of the volume.  With
    need_gradient=False only the value is formed and the other two are None.
    The pair is formed only when asked for, from arrays the gradient already
    has, so a caller that keeps one iterate's pair pays for that one alone.
    Complex f_values propagate through (for complex-step linearization); the
    returned values are then complex as well.

    The volume is assembled in the ambient frame through the chart's affine
    map z -> p + t u z (flat space is EuclideanMetric's identity chart, p = 0,
    u = I, t = 1): with T' = T u^T the ambient tangent vectors (up to the
    factor t), the chart metric's h = T g T^T is T' G T'^T, its rows T g are
    (T' G) u, and its contraction <M, dg_m> is t ((dG : T'^T h^-1 T') u)_m,
    so the base metric is used as it comes, at the embedded points.  Every
    volume makes one metric call, the base metric's `linearize`, value-only
    ones too: it gives G, and its pullback gives dG : M' by one reverse sweep
    when the gradient is asked for; dG itself is never formed.
    """
    f = np.asarray(f_values)
    n, d = chart.n, 2 * chart.n
    r2, _, cos_r, sin_r, coords, Y, T = _graph_jets(chart, grid, f)
    tables = _grid_tables(grid)
    base, u, t = metric.base, metric.frame.matrix, metric.t
    G, pullback = base.linearize(metric.embed(coords))
    lead = f.shape
    # T' = T u^T, one flat GEMM over all N n tangent rows; its per-node
    # transpose is made contiguous once, for h and M
    T_amb = (T.reshape(-1, d) @ u.T).reshape(T.shape)
    T_amb_t = np.ascontiguousarray(np.swapaxes(T_amb, -1, -2))
    TG_amb = T_amb @ G
    h = TG_amb @ T_amb_t
    hinv, det = _small_inverse(h)
    q = np.sqrt(det)
    w = tables.weight
    vol = np.sum(q) * w
    if not need_gradient:
        return vol, None, None

    TG = (TG_amb.reshape(-1, d) @ u).reshape(T.shape)  # rows T_a g in the chart
    # g T_b projected on the chart's unit directions per pair of slots: the
    # normal (cos, sin)/r_j = d Phi/d y_j and the tangential
    # (-sin, cos)/r_j = d Phi/d theta_j / r_j^2.  The normal one is small and
    # exact at the zero section, where (d Phi/d y) hinv T g would cancel
    TG_t = np.swapaxes(TG, -1, -2)  # (*s, m, b)
    normal_TG = cos_r[..., None] * TG_t[..., 0::2, :] + sin_r[..., None] * TG_t[..., 1::2, :]
    tangent_TG = cos_r[..., None] * TG_t[..., 1::2, :] - sin_r[..., None] * TG_t[..., 0::2, :]
    B = normal_TG @ np.swapaxes(hinv, -1, -2)  # (*s, j, a)
    # d g / d y_j = sum_m (d Phi/d y_j)_m dg_m, paired with M = T^T hinv T; in
    # the ambient frame <M, dg_m> = t sum_k <T'^T hinv T', dG_k> u_km
    M_amb = T_amb_t @ hinv @ T_amb
    dGM = t * (pullback(M_amb).reshape(-1, d) @ u)  # (N, d)
    dGM = dGM.reshape(lead + (d,))
    # A_j = sum_{a,m} dT_am/dy_j (hinv T g)_am + <M, dg/dy_j> / 2, where dT_a/dy_j
    # in slots (2j, 2j+1) is delta_aj d Phi/d theta_j / r_j^2 - Y_ja (cos, sin)/r_j^3:
    # the tangential projection at a = j and the normal one through B
    A = (
        np.sum(hinv * tangent_TG, axis=-1)
        - np.sum(Y * B, axis=-1) / r2
        + 0.5 * (cos_r * dGM[..., 0::2] + sin_r * dGM[..., 1::2])
    )

    def affine_sensitivity():
        # node sums, each one flat matrix product; T^T W with W = hinv T g
        # is M g, the transpose of g M
        W = hinv @ TG
        half_q = 0.5 * w * q.reshape(-1)
        weighted_dGM = half_q[:, None] * dGM.reshape(-1, d)
        weighted_T = (half_q[:, None, None] * T.reshape(-1, n, d)).reshape(-1, d)
        d_shift = weighted_dGM.sum(axis=0)
        d_linear = 2.0 * (W.reshape(-1, d).T @ weighted_T) + weighted_dGM.T @ coords.reshape(-1, d)
        return d_shift, d_linear

    # P = -sum_j d_j A_j + sum_jc d_c d_j B_jc: the n + n^2 fields q A_j and
    # q B_jc written into one buffer, one batched forward transform, and the
    # multipliers summed in Fourier space
    fields = np.empty((n + n * n,) + lead, dtype=np.result_type(A, B))
    np.multiply(q, np.moveaxis(A, -1, 0), out=fields[:n])
    np.multiply(q, np.moveaxis(B.reshape(lead + (n * n,)), -1, 0), out=fields[n:])
    spectra = _forward(fields, grid)
    P_hat = sum(k * x for k, x in zip(tables.p_symbols, spectra))
    return vol, _hermitian_part(P_hat / chart.flat_density(), grid), affine_sensitivity
