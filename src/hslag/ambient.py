"""Compatible ambient metrics, unitary frames, and affine Darboux charts.

The ambient manifold is the square symplectic torus (period 2*pi in every
coordinate) with the constant standard form omega0.  A metric G is compatible
when J := -G^{-1} Omega0 squares to -I; then (G, omega0, J) is a compatible
triple.  The construction is an exponential family G(p) = expm(Y(p)) with
Y(p) a trigonometric polynomial valued in the symmetric matrices that
anticommute with Omega0.  Such G is compatible exactly (expm(Y/2) is
symplectic and symmetric, so G = S^T S with S symplectic), periodic, and
complex-analytic in the point, which the complex-step linearization of the
volume gradient relies on.  expm is its Taylor series, cut at a length that
each metric fixes once from a bound on |Y| (at most 8, so that rounding
keeps J^2 + I within 1e-12; a larger bound raises), so the evaluated G is one
polynomial in the point.  SymplecticExpMetric evaluates that polynomial in
Paterson-Stockmeyer form over jets: the product rule carries G, dG and d2G
through the same few matrix products, and the generator's jet is one GEMM
of the phases against a weight matrix fixed at construction.  Where only
the contraction dG : M is wanted, one value pass and one reverse sweep
through its products give it without the jet.  Its temporaries live in
workspaces the metric reuses, so a warm call allocates only the arrays it
returns; for the same reason one metric instance is not thread-safe.

Every metric evaluator (EuclideanMetric, SymplecticExpMetric, ChartMetric)
has two methods: value(points) returns G with shape [..., i, j], and
derivative(points, order=1) returns the jet (G, dG), or (G, dG, d2G) when
order=2, with dG[..., mu, i, j] = dG_ij / dp_mu and
d2G[..., mu, nu, i, j] = d^2 G_ij / dp_mu dp_nu.  The jet's G equals value's
bit for bit.  Every call returns new arrays that the caller owns and may
overwrite (ChartMetric pulls back in its base's returned jet).  The ambient
metrics also have linearize(points), which returns (G, pullback) with G
value's bit for bit and pullback(M)[..., mu] = sum_ij dG_ij / dp_mu M_ij:
the graph volume's whole use of the metric.

Frames: a unitary frame at p is a real matrix upsilon with
upsilon^T G(p) upsilon = I and upsilon^T Omega0 upsilon = Omega0, built by
Gram-Schmidt over the complex structure J_p.  Affine charts z -> p + upsilon z
pull omega back to omega0 exactly; the scaled pullback metric
g^t(z) = upsilon^T G(p + t upsilon z) upsilon is the object all scaling
estimates and the reduction pipeline consume.  The scaling estimates
evaluate it as batched matrix products; the graph volume pushes its tangent
data through the affine map instead and never forms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, RankDeficiencyError
from .geomcore import standard_symplectic_matrix

__all__ = [
    "EuclideanMetric",
    "SymplecticExpMetric",
    "ChartMetric",
    "UnitaryFrame",
    "symmetric_anticommuting_basis",
    "default_perturbed_metric",
    "unitary_frame",
    "frame_fit",
    "unitary_embedding",
    "unitary_algebra_basis",
    "ball_samples",
    "estimate_sweep",
    "EstimateReport",
]

def _inexact(values) -> np.ndarray:
    """values as a float array, or a complex one when they are complex."""
    values = np.asarray(values)
    return values.astype(np.result_type(values.dtype, float), copy=False)


def _eye_like(shape: tuple, d: int, dtype) -> np.ndarray:
    out = np.zeros(shape + (d, d), dtype=dtype)
    out[..., range(d), range(d)] = 1.0
    return out


class EuclideanMetric:
    """The flat metric g0 = identity on R^{2n}; trivially compatible, no waves."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 2 * n
        self.wave_vectors = np.zeros((0, self.dim))

    def value(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points)
        return _eye_like(points.shape[:-1], self.dim, points.dtype)

    def derivative(self, points: np.ndarray, order: int = 1) -> tuple[np.ndarray, ...]:
        points = np.asarray(points)
        d = self.dim
        zeros = [
            np.zeros(points.shape[:-1] + (d,) * (2 + k), dtype=points.dtype)
            for k in range(1, order + 1)
        ]
        return (self.value(points), *zeros)

    def linearize(self, points: np.ndarray):
        """(I, pullback) with pullback(M) = 0: the flat metric is constant."""
        G = self.value(points)
        return G, lambda M: np.zeros(G.shape[:-1], dtype=np.result_type(G, M))


def _anticommuting_constraints(n: int) -> np.ndarray:
    """The linear conditions X_ij = X_ji and X Omega0 + Omega0 X = 0 on the
    flattened X in R^{2n x 2n}, one per row."""
    d = 2 * n
    om = standard_symplectic_matrix(n)
    # antisymmetry constraints X_ij - X_ji = 0 for i < j, rows in (i, j) order
    units = np.eye(d * d).reshape(d, d, d, d)  # units[i, j] = e_i e_j^T
    antisymmetry = (units - units.transpose(1, 0, 2, 3))[np.less.outer(range(d), range(d))]
    # anticommutator constraints (X Om + Om X)_ij = 0: row (i, j), column
    # (k, l) is d/dX_kl of (X Om + Om X)_ij = delta_ik Om_lj + Om_ik delta_jl
    eye = np.eye(d, dtype=bool)
    anticommutator = np.where(eye[:, None, :, None], om.T[None, :, None, :], 0.0) + np.where(
        eye[None, :, None, :], om[:, None, :, None], 0.0
    )
    return np.concatenate([antisymmetry, anticommutator.reshape(-1, d, d)]).reshape(-1, d * d)


def symmetric_anticommuting_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of {X = X^T : X Omega0 = -Omega0 X} in R^{2n x 2n}.

    This is the tangent space (at the identity) of compatible metrics inside
    the exponential family; its dimension is n(n+1).  It is the null space of
    the constraints: the right singular vectors past their numerical rank.
    """
    d = 2 * n
    rows = _anticommuting_constraints(n)
    _, singular, vt = np.linalg.svd(rows)
    rank = int(np.count_nonzero(singular > max(rows.shape) * np.finfo(float).eps * singular[0]))
    null = vt[rank:]
    if len(null) != n * (n + 1):
        raise RankDeficiencyError(
            f"anticommuting-symmetric space has dim {len(null)}, expected {n * (n + 1)}"
        )
    return list(null.reshape(-1, d, d))


@dataclass
class SymplecticExpMetric:
    """G(p) = expm(Y(p)), Y(p) = amplitude * sum_k (A_k cos(m_k.p) + B_k sin(m_k.p)).

    A_k, B_k are symmetric and anticommute with Omega0, so G is compatible at
    every point without any retraction, and 2*pi-periodic since the wave
    vectors m_k are integers.

    expm is its Taylor polynomial sum_{j <= J} Y^j / j!.  The number of terms
    J is fixed once, at construction, from the bound
    r = amplitude * sum_k sqrt(|A_k|_F^2 + |B_k|_F^2) >= sup_p |Y(p)|_2: it is
    the fewest terms whose geometric tail bound for the order-2 series is
    below 2^-60 (14 terms for the default amplitude 0.05, about 27 at 0.5;
    there is no scaling and squaring).  J never depends on the points, so
    the jet stays one polynomial in the point: exact under complex-step
    differentiation.  An r that is not finite or above _MAX_SERIES_BOUND
    raises ConfigError.

    The polynomial is evaluated in Paterson-Stockmeyer form (Paterson &
    Stockmeyer, SIAM J. Comput. 1973) with blocks of s = 5 powers,

        G = (...(B_{m-1} Y^s + B_{m-2}) Y^s + ...) Y^s + B_0,
        B_i = sum_{l < s} Y^l / (i s + l)!,

    over jets, so that the same products give G and its first and second
    derivatives (the Frechet-derivative jet of Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 2009).  A jet (X, dX, d2X) is stored direction-inside,
    X as [N, a, j], dX as [N, a, mu, j] and d2X as [N, a, mu, nu, j], so a jet
    product is the product rule with one batched matmul per pair of slots,
    and the generator's d2Y enters through the chain rule.  The powers
    Y^0..Y^(s-1) are stacked, so every block B_i comes from one small GEMM
    against the coefficient matrix; at J = 14 the series costs 4 power
    products and 2 Horner products.  The generator's jet is one weight
    matrix, fixed at construction and laid out in the jet's layout, applied
    to the phases [cos(m_k.p), sin(m_k.p)]: one GEMM per slot against that
    slot's column block.

    linearize runs the order-0 pass and keeps its products: the powers
    Y^0..Y^(s-1), Y^s and the Horner partial sums.  Its pullback(M) then
    gives dG : M by reverse mode (Griewank & Walther, Evaluating
    Derivatives, 2008) through those products: at J = 14, 4 products back
    through the Horner steps, 2 through Y^s and 6 through the powers, the
    block GEMM transposed, and one GEMM of the generator's adjoint against
    the value slot's weights, paired with the phases' derivatives.  That is
    the contraction of the Frechet derivative with M, with no d-direction
    jet formed; it uses transposes and no conjugates, so it is exact under
    complex step.

    The points are taken in chunks of at most _CHUNK, except by linearize,
    which keeps the whole point set for its sweep.  Every temporary lives in
    a workspace that the metric keeps and reuses, one per (chunk length,
    dtype, order, J, whether it serves a sweep); only the returned arrays
    are allocated per call, and they never alias the workspace.  A pullback
    reads its linearize's workspace, so it is valid until the metric's next
    evaluation and raises RuntimeError after that; nor may two threads
    evaluate one metric at once, since they would share the workspaces.
    The value slot's arithmetic is the same at every order and in
    linearize, so the jet contract (value's G is the jet's G and
    linearize's, the order-1 jet the head of the order-2 one) holds bit
    for bit.
    """

    n: int
    wave_vectors: np.ndarray  # (K, 2n) integers
    cos_coeffs: np.ndarray  # (K, 2n, 2n)
    sin_coeffs: np.ndarray  # (K, 2n, 2n)
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        self.wave_vectors = np.asarray(self.wave_vectors, dtype=float)
        self.cos_coeffs = np.asarray(self.cos_coeffs, dtype=float)
        self.sin_coeffs = np.asarray(self.sin_coeffs, dtype=float)
        d = 2 * self.n
        om = standard_symplectic_matrix(self.n)
        # every cos and sin coefficient symmetric and anticommuting with Omega0
        coeffs = np.stack([self.cos_coeffs, self.sin_coeffs])
        asymmetry = np.abs(coeffs - np.swapaxes(coeffs, -1, -2))
        defect = np.maximum(asymmetry, np.abs(coeffs @ om + om @ coeffs))
        outside = np.max(defect.reshape(2, -1), axis=1, initial=0.0) > 1e-12
        if outside.any():
            name = "cos" if outside[0] else "sin"
            raise ConfigError(f"{name} coefficient not in the compatible tangent space")
        if self.wave_vectors.shape != (len(self.cos_coeffs), d):
            raise ConfigError("wave vector shape mismatch")
        if np.max(np.abs(self.wave_vectors - np.round(self.wave_vectors))) > 0:
            raise ConfigError("wave vectors must be integers (periodicity)")
        # |A c + B s|_F <= sqrt(|A|_F^2 + |B|_F^2) whenever c^2 + s^2 = 1
        norms = np.sqrt(np.sum(self.cos_coeffs**2 + self.sin_coeffs**2, axis=(1, 2)))
        r = abs(self.amplitude) * float(np.sum(norms))
        if not r <= _MAX_SERIES_BOUND:  # also refuses NaN, for which no series is certified
            raise ConfigError(
                f"amplitude {self.amplitude} gives the series bound r = {r:.4g}, not within "
                f"{_MAX_SERIES_BOUND}, past which G is not compatible to 1e-12"
            )
        self._terms = _series_length(r)
        self._phase_weights = _phase_weights(
            self.wave_vectors, self.cos_coeffs, self.sin_coeffs, self.amplitude
        )
        self._workspaces: dict = {}
        self._evaluations = 0

    def __copy__(self) -> "SymplecticExpMetric":
        """A twin with this metric's series and its own workspaces and
        evaluation counter: neither's evaluations touch the other's buffers,
        so a pullback stays valid across the twin's calls."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._workspaces = {}
        return twin

    @property
    def dim(self) -> int:
        return 2 * self.n

    def _workspace(self, count: int, dtype, order: int, reverse: bool = False) -> "_JetWorkspace":
        """The reused buffers for `count` points of this dtype at this order,
        most recent last; reverse ones also keep what a reverse sweep reads."""
        key = (count, dtype, order, self._terms, reverse)
        ws = self._workspaces.pop(key, None)
        if ws is None:
            if len(self._workspaces) >= _WORKSPACES:
                del self._workspaces[next(iter(self._workspaces))]
            ws = _JetWorkspace(self, key)
        self._workspaces[key] = ws
        return ws

    def _generator_into(self, ws: "_JetWorkspace", points: np.ndarray) -> None:
        """Y's jet at points [N, 2n] into ws.powers[1]: the phases times the
        weight matrix, one GEMM per slot against its column block."""
        K = len(self.wave_vectors)
        np.matmul(ws.waves, points.T, out=ws.arg)
        np.cos(ws.arg, out=ws.phases[:K])
        np.sin(ws.arg, out=ws.phases[K:])
        for weights, slot in zip(ws.weights, ws.power_jets[1].slots):
            np.matmul(ws.phases.T, weights, out=slot)

    def _jet(self, points: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """(G, dG, d2G)[:order + 1] from one Paterson-Stockmeyer evaluation
        per chunk of at most _CHUNK points."""
        if order > 2:
            raise ValueError(f"metric jets are available to order 2, not {order}")
        self._evaluations += 1
        points = np.asarray(points)
        lead, d = points.shape[:-1], self.dim
        dtype = np.result_type(points.dtype, float)
        outputs = [np.empty(lead + (d,) * (2 + k), dtype) for k in range(order + 1)]
        flat = points.reshape(-1, points.shape[-1])
        rows = [x.reshape((len(flat),) + x.shape[len(lead) :]) for x in outputs]
        for start in range(0, len(flat), _CHUNK):
            chunk = flat[start : start + _CHUNK]
            ws = self._workspace(len(chunk), dtype, order)
            self._generator_into(ws, chunk)
            _copy_out(_paterson_stockmeyer(ws), rows, start)
        return tuple(outputs)

    def value(self, points: np.ndarray) -> np.ndarray:
        return self._jet(points, 0)[0]

    def derivative(self, points: np.ndarray, order: int = 1) -> tuple[np.ndarray, ...]:
        """The jet (G, dG), or (G, dG, d2G) when order=2, from one series."""
        return self._jet(points, order)

    def linearize(self, points: np.ndarray):
        """(G, pullback): G is value(points) bit for bit, and pullback(M) for
        M [..., 2n, 2n] returns dG : M, that is
        pullback(M)[..., mu] = sum_ij dG_ij/dp_mu M_ij, with shape [..., 2n].

        The pullback runs one reverse sweep through the products of the
        value pass, which it reads from this metric's workspace, so it is
        valid until the next evaluation on this metric; a stale pullback
        raises RuntimeError."""
        self._evaluations += 1
        evaluation = self._evaluations
        points = np.asarray(points)
        lead, d = points.shape[:-1], self.dim
        flat = points.reshape(-1, points.shape[-1])
        ws = self._workspace(len(flat), np.result_type(points.dtype, float), 0, reverse=True)
        self._generator_into(ws, flat)
        G = _paterson_stockmeyer(ws).v.reshape(lead + (d, d)).copy()

        def pullback(M: np.ndarray) -> np.ndarray:
            if self._evaluations != evaluation:
                raise RuntimeError("stale pullback: the metric was evaluated again after linearize")
            return _reverse_sweep(ws, np.reshape(M, (-1, d, d))).reshape(lead + (d,))

        return G, pullback


# Paterson-Stockmeyer block length s: at the default J = 14 the powers up to
# Y^5 and two Horner steps make 6 jet products, as few as any s gives.
_PS_BLOCK = 5
# Workspaces a metric keeps; the least recently used one goes first.  A
# located torus at grid 24 was measured to build 8: real frame stacks of 1,
# 6 and 10 points, complex ones of 5 and 50, order-1 chunks of 256 and 64
# points, and the volume's 576-point reverse sweep.  Fewer would rebuild
# most of them on every torus.
_WORKSPACES = 16
# Points per workspace: 256 keeps an order-1 workspace near 1.5 MB, inside
# a core's L2 cache, at any grid size.
_CHUNK = 256
# The largest bound r on |Y| a metric takes: the rounding of G grows like e^r.
# Over 200 points at n = 2 and 3, seeds 0 and 1, |J^2 + I| measured <= 2e-14
# at r <= 4, 8.0e-13 at r = 8.1 (50 terms), 2.9e-12 at 10.8, 9e-11 at 14.4.
_MAX_SERIES_BOUND = 8.0


def _phase_weights(m: np.ndarray, A: np.ndarray, B: np.ndarray, amplitude: float) -> np.ndarray:
    """(2K, d^2 + d^3 + d^4) weights W with [cos | sin](m.p) W = [Y | dY | d2Y],
    each slot in the jet's direction-inside layout [a, (mu, (nu,)) j]."""
    K = len(m)
    m1 = m[:, None, :, None]  # [k, a, mu, j]
    m2 = (m[:, :, None] * m[:, None, :])[:, None, :, :, None]  # [k, a, mu, nu, j]
    cos_rows = [A, B[:, :, None, :] * m1, -A[:, :, None, None, :] * m2]
    sin_rows = [B, -A[:, :, None, :] * m1, -B[:, :, None, None, :] * m2]
    rows = [np.concatenate([x.reshape(K, -1) for x in r], axis=1) for r in (cos_rows, sin_rows)]
    return amplitude * np.concatenate(rows, axis=0)


class _JetView:
    """One jet stored slot by slot in a flat buffer, as matmul-ready views.

    The buffer holds X as [N, a, j], then dX as [N, a, mu, j], then d2X as
    [N, a, mu, nu, j], each slot contiguous.  slots are the [N, -1] views the
    generator GEMM writes; g_rows / g_cols view dX as [N, (a, mu), j] and
    [N, a, (mu, j)], and h_rows / h_cols / h_pairs view d2X as
    [N, (a, mu, nu), j], [N, a, (mu, nu, j)] and [N, (a, mu), (nu, j)]."""

    def __init__(self, flat: np.ndarray, N: int, d: int, order: int):
        ends = np.cumsum([N * d ** (2 + k) for k in range(order + 1)])
        self.flat = flat
        self.slots = [x.reshape(N, -1) for x in np.split(flat, ends[:-1])]
        self.v = self.slots[0].reshape(N, d, d)
        self.g = self.h = None
        if order >= 1:
            self.g = self.slots[1].reshape(N, d, d, d)
            self.g_rows = self.g.reshape(N, d * d, d)
            self.g_cols = self.g.reshape(N, d, d * d)
        if order == 2:
            self.h = self.slots[2].reshape(N, d, d, d, d)
            self.h_rows = self.h.reshape(N, d**3, d)
            self.h_cols = self.h.reshape(N, d, d**3)
            self.h_pairs = self.h.reshape(N, d * d, d * d)


def _paterson_stockmeyer(ws: "_JetWorkspace") -> "_JetView":
    """The series' jet from the generator's jet in ws.powers[1]."""
    P, Y, B = ws.power_jets, ws.power_jets[1], ws.blocks
    for l in range(2, len(P)):
        _jet_product(P[l - 1], Y, P[l], ws.scratch)
    np.matmul(ws.coeffs, ws.powers_flat, out=ws.blocks_flat)
    if len(B) > 1:
        _jet_product(P[-1], Y, ws.top, ws.scratch)
        for i in range(len(B) - 2, -1, -1):
            _jet_product(ws.block_jets[i + 1], ws.top, ws.product, ws.scratch)
            B[i] += ws.product.flat
    return ws.block_jets[0]


def _reverse_sweep(ws: "_JetWorkspace", M: np.ndarray) -> np.ndarray:
    """dG : M [N, d] for M [N, d, d], by reverse mode through the products
    of the order-0 series pass that ws keeps.

    With H_i the Horner partial sums (H_i = B_i + H_{i+1} Z, Z = Y^s, G = H_0)
    and P_l = P_{l-1} Y the powers, the sweep carries each adjoint X_bar as
    its transpose Q = X_bar^T, so that a product x w hands it on by plain
    products, Q_x += w Q_out and Q_w += Q_out x, and the block GEMM's adjoint
    is its transpose.  Q_Y, paired with the generator's value-slot weights
    and the phases' derivatives, gives dG : M.  Only transposes, no
    conjugates, so a complex step stays exact."""
    P = [x.v for x in ws.power_jets]
    H = [x.v for x in ws.block_jets]
    Q_H, Q_P, Q_Z, tmp = ws.block_bars, ws.power_bars, ws.top_bar, ws.scratch.v
    Z, Y, Q_Y = ws.top.v, P[1], Q_P[1]
    np.copyto(Q_H[0], M.swapaxes(1, 2))
    Q_Z.fill(0.0)
    for i in range(len(H) - 1):
        np.matmul(Z, Q_H[i], out=Q_H[i + 1])
        np.matmul(Q_H[i], H[i + 1], out=tmp)
        Q_Z += tmp
    np.matmul(ws.coeffs.T, ws.block_bars_flat, out=ws.power_bars_flat)
    # Z = P_{s-1} Y, then P_l = P_{l-1} Y down to l = 2
    steps = [(P[-1], Q_Z, Q_P[-1])] if len(H) > 1 else []
    steps += [(P[l - 1], Q_P[l], Q_P[l - 1]) for l in range(len(P) - 1, 1, -1)]
    for x, Q_out, Q_x in steps:
        np.matmul(Y, Q_out, out=tmp)
        Q_x += tmp
        np.matmul(Q_out, x, out=tmp)
        Q_Y += tmp
    # Y = sum_k cos_k A_k + sin_k B_k, so dY/dp = sum_k (-sin_k A_k + cos_k B_k) m_k
    K = len(ws.waves)
    paired = np.matmul(ws.transposed_weights, Q_Y.reshape(len(M), -1).T, out=ws.phase_bars)
    at_A, at_B = paired[:K], paired[K:]
    at_A *= ws.phases[K:]
    at_B *= ws.phases[:K]
    at_B -= at_A
    return at_B.T @ ws.waves


def _jet_product(x: _JetView, w: _JetView, out: _JetView, tmp: _JetView) -> None:
    """out = x w over jets, by the product rule; tmp is scratch.

    d(xw) = dx w + x dw and d2(xw)_mn = d2x_mn w + x d2w_mn + dx_m dw_n + dx_n dw_m,
    each term one batched matmul in the direction-inside layout."""
    np.matmul(x.v, w.v, out=out.v)
    if out.g is None:
        return
    np.matmul(x.g_rows, w.v, out=out.g_rows)
    np.matmul(x.v, w.g_cols, out=tmp.g_cols)
    out.g += tmp.g
    if out.h is None:
        return
    np.matmul(x.h_rows, w.v, out=out.h_rows)
    np.matmul(x.v, w.h_cols, out=tmp.h_cols)
    out.h += tmp.h
    np.matmul(x.g_rows, w.g_cols, out=tmp.h_pairs)
    out.h += tmp.h
    out.h += tmp.h.swapaxes(2, 3)


class _JetWorkspace:
    """The buffers of one jet evaluation, reused from call to call.

    powers[l] holds the jet of Y^l for l < s (powers[0] is the identity, set
    once); blocks[i] the jet of the block B_i, and then of the Horner partial
    sum from B_i up.  The block GEMM runs on views in the buffers' real dtype
    (float64 or longdouble): complex points take the real GEMM twice over."""

    def __init__(self, metric: SymplecticExpMetric, key: tuple):
        N, dtype, order, terms, reverse = key
        d, K = metric.dim, len(metric.wave_vectors)
        widths = [d ** (2 + k) for k in range(order + 1)]
        s = min(_PS_BLOCK, terms + 1)
        m = -(-(terms + 1) // s)
        self.waves = metric.wave_vectors.astype(dtype)
        bounds = np.cumsum([0] + widths)
        self.weights = [
            np.ascontiguousarray(metric._phase_weights[:, a:b], dtype=dtype)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        # node-last, so that cos and sin write contiguous rows
        self.arg = np.empty((K, N), dtype)
        self.phases = np.empty((2 * K, N), dtype)
        self.powers = np.zeros((s, N * sum(widths)), dtype)
        self.blocks = np.empty((m, N * sum(widths)), dtype)
        self.coeffs = np.array(
            [[1 / math.factorial(i * s + l) if i * s + l <= terms else 0.0 for l in range(s)]
             for i in range(m)]
        )
        self.powers_flat = self.powers.view(self.powers.real.dtype)
        self.blocks_flat = self.blocks.view(self.blocks.real.dtype)
        self.power_jets = [_JetView(x, N, d, order) for x in self.powers]
        self.block_jets = [_JetView(x, N, d, order) for x in self.blocks]
        self.scratch = _JetView(np.empty(N * sum(widths), dtype), N, d, order)
        self.power_jets[0].slots[0][:, :: d + 1] = 1.0
        if not reverse:
            # Y^s replaces Y^2, and Y^3 takes each Horner product
            self.top, self.product = self.power_jets[2:4] if m > 1 else (None, None)
            return
        # a reverse sweep reads every power, so Y^s gets its own buffer, and
        # the Horner product uses the scratch; then the adjoints of each
        self.top, self.product = _JetView(np.empty(N * d * d, dtype), N, d, 0), self.scratch
        self.top_bar = np.empty((N, d, d), dtype)
        bars = np.empty((m + s, N * d * d), dtype)
        self.block_bars_flat, self.power_bars_flat = np.split(bars.view(bars.real.dtype), [m])
        self.block_bars = [x.reshape(N, d, d) for x in bars[:m]]
        self.power_bars = [x.reshape(N, d, d) for x in bars[m:]]
        self.phase_bars = np.empty((2 * K, N), dtype)
        # the value slot's weights with (i, j) read as (j, i), to pair with Q_Y
        value_weights = self.weights[0].reshape(2 * K, d, d)
        self.transposed_weights = value_weights.transpose(0, 2, 1).reshape(2 * K, -1)


def _copy_out(jet: _JetView, rows: list, start: int) -> None:
    """The jet into rows[k][start:], in the contract layout (direction axes
    before [i, j])."""
    stop = start + len(jet.v)
    np.copyto(rows[0][start:stop], jet.v)
    if jet.g is not None:
        np.copyto(rows[1][start:stop], jet.g.swapaxes(1, 2))
    if jet.h is not None:
        np.copyto(rows[2][start:stop], np.moveaxis(jet.h, 1, 3))


def _series_length(r: float) -> int:
    """Fewest series terms J whose omitted order-2 tail is below 2^-60.

    With |Y|_2 <= r the j-th term of the d2G series is at most r^(j-2)/(j-2)!
    per unit pair of directions (the terms of G and dG are smaller), and
    after the J-th term each falls by a factor r/J or more, so the tail after
    J terms is at most r^(J-1)/(J-1)! / (1 - r/J)."""
    J, lead = 2, r  # lead = r^(J-1)/(J-1)!
    while r >= J or lead / (1.0 - r / J) >= 2.0**-60:
        lead *= r / J
        J += 1
    return J


def default_perturbed_metric(
    n: int = 2, amplitude: float = 0.05, seed: int = 0, num_waves: int = 3
) -> SymplecticExpMetric:
    """Seeded trigonometric compatible perturbation of the flat metric."""
    rng = np.random.default_rng(seed)
    basis = np.array(symmetric_anticommuting_basis(n))
    waves, weights = [], []
    while len(waves) < num_waves:
        m = rng.integers(-2, 3, size=2 * n)
        if not np.any(m):
            continue
        waves.append(m)
        weights.append([rng.normal(size=len(basis)), rng.normal(size=len(basis))])
    # [cos | sin, wave] combinations of the basis, each summed from 0 in basis
    # order: a reduction over an outer axis adds term by term
    terms = np.transpose(weights, (1, 0, 2))[..., None, None] * basis
    coeffs = np.add.reduce(terms, axis=2, initial=0.0) / np.sqrt(len(basis))
    return SymplecticExpMetric(n, np.array(waves, dtype=float), coeffs[0], coeffs[1], amplitude)


# ---------------------------------------------------------------------------
# unitary frames


@dataclass
class UnitaryFrame:
    """A point of the ambient torus plus a frame matrix unitary for (G, omega0).

    Both are real, except under complex-step differentiation, where a
    complex point and matrix carry the derivative in their imaginary parts."""

    point: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.point = _inexact(self.point)
        self.matrix = _inexact(self.matrix)


def _gram_schmidt_frame(G: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Complex Gram-Schmidt against J = -G^{-1} Omega0, for a stack of frames.

    Orthonormalizes w.r.t. the Hermitian form h(u, v) = G(u, v) + i omega0(u, v)
    on the complex vector space (R^{2n}, J); columns come out interleaved as
    (u_1, J u_1, ..., u_n, J u_n), which gives upsilon^T G upsilon = I and
    upsilon^T Omega0 upsilon = Omega0 in the standard conventions.  G is
    [..., d, d] and each candidate broadcasts against [..., d]; every frame of
    the stack runs the same arithmetic.  Complex G and candidates go through
    it without conjugation, and a seed is accepted or skipped on the real part
    of its norm, so the frame is complex-analytic in its inputs (complex-step
    safe).  The stack accepts a seed only where every frame accepts it:
    complex-step rows of one frame share their real parts, so they agree.
    """
    d = G.shape[-1]
    om = standard_symplectic_matrix(d // 2)
    J = -np.linalg.solve(G, om)

    def pair(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return np.sum(u * (G @ v[..., None])[..., 0], axis=-1)

    built: list[np.ndarray] = []
    cand = list(candidates)
    cols = []
    for _ in range(d // 2):
        v = None
        while cand:
            v = np.broadcast_to(_inexact(cand.pop(0)), G.shape[:-1])
            for u in built:
                Ju = (J @ u[..., None])[..., 0]
                v = v - pair(u, v)[..., None] * u - pair(Ju, v)[..., None] * Ju
            norm2 = pair(v, v)
            if np.all(norm2.real > 1e-16):
                v = v / np.sqrt(norm2)[..., None]
                break
            v = None
        if v is None:
            raise RankDeficiencyError("frame Gram-Schmidt ran out of independent seeds")
        built.append(v)
        cols.extend([v, (J @ v[..., None])[..., 0]])
    return np.stack(cols, axis=-1)


def unitary_frame(metric, p: np.ndarray, seed: int = 0) -> UnitaryFrame:
    """A (G, omega0)-unitary frame at p from a seeded random start."""
    p = np.asarray(p, dtype=float)
    G = metric.value(p)
    rng = np.random.default_rng(seed)
    candidates = [rng.normal(size=G.shape[0]) for _ in range(4 * G.shape[0])]
    return UnitaryFrame(p, _gram_schmidt_frame(G, candidates))


def frame_fit(metric, p: np.ndarray, target: np.ndarray) -> UnitaryFrame:
    """Correct nearly-unitary frames to exact ones: p [..., 2n] and target
    [..., 2n, 2n], one frame per leading index.

    Seeds the Gram-Schmidt with the target's x_j columns, so the output is a
    smooth function of (p, target) near any valid frame and reduces to the
    identity correction when the target is already unitary.  Complex p and
    target give the complex-analytic continuation (see _gram_schmidt_frame).
    """
    p = _inexact(p)
    G = metric.value(p)
    target = _inexact(target)
    d = target.shape[-1]
    seeds = [target[..., :, 2 * j] for j in range(d // 2)]
    return UnitaryFrame(p, _gram_schmidt_frame(G, seeds + list(np.eye(d))))


def unitary_embedding(gamma: np.ndarray) -> np.ndarray:
    """Real 2n x 2n matrix of z -> gamma z in interleaved coordinates."""
    gamma = np.asarray(gamma, dtype=complex)
    n = gamma.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[0::2, 0::2] = gamma.real
    out[0::2, 1::2] = -gamma.imag
    out[1::2, 0::2] = gamma.imag
    out[1::2, 1::2] = gamma.real
    return out


def unitary_algebra_basis(n: int) -> list[np.ndarray]:
    """Basis of u(n); the first n entries are the diagonal (stabilizer) part.

    Order: i E_jj for each j, then for j < k the pair (E_jk - E_kj)/sqrt(2),
    i (E_jk + E_kj)/sqrt(2).  Downstream code relies on this ordering to
    identify the diagonal-torus directions.
    """
    out = []
    for j in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[j, j] = 1j
        out.append(m)
    for j in range(n):
        for k in range(j + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[j, k], m[k, j] = 1.0, -1.0
            out.append(m / np.sqrt(2))
            m = np.zeros((n, n), dtype=complex)
            m[j, k], m[k, j] = 1j, 1j
            out.append(m / np.sqrt(2))
    return out


# ---------------------------------------------------------------------------
# affine charts and scaling estimates


class ChartMetric:
    """Scaled chart pullback g^t(z) = upsilon^T G(p + t upsilon z) upsilon.

    Implements the same value/derivative contract as the ambient metrics; a
    jet makes one base call and pulls back each order.  Those jets serve
    `estimate_sweep` and the tests.  The graph volume does not call them: it
    reads base, frame and t and works in the ambient frame (see
    `weinstein.graph_volume_and_gradient`).  At t = 0 (or for the flat
    metric) it is identically the identity matrix.
    """

    def __init__(self, base, frame: UnitaryFrame, t: float):
        self.base = base
        self.frame = frame
        self.t = float(t)
        self.dim = base.dim

    def embed(self, z: np.ndarray) -> np.ndarray:
        """Ambient coordinates of chart points: p + t * upsilon z."""
        return self.frame.point + self.t * (np.asarray(z) @ self.frame.matrix.T)

    def value(self, z: np.ndarray) -> np.ndarray:
        u = self.frame.matrix
        return u.T @ self.base.value(self.embed(z)) @ u

    def derivative(self, z: np.ndarray, order: int = 1) -> tuple[np.ndarray, ...]:
        G, *dG = self.base.derivative(self.embed(z), order)
        u = self.frame.matrix
        lead, d = G.shape[:-2], self.dim
        jet = [u.T @ G @ u]
        # chain rule d/dz_m = t sum_n u[n, m] d/dp_n on each direction slot;
        # the base jet is fresh, so its buffer takes the inner pullback
        if order >= 1:
            np.matmul(u.T @ dG[0], u, out=dG[0])
            D = u.T @ dG[0].reshape(lead + (d, d * d))
            D *= self.t
            jet.append(D.reshape(lead + (d, d, d)))
        if order >= 2:
            S = u.T @ (u.T @ dG[1] @ u).reshape(lead + (d, d**3))
            S = u.T @ S.reshape(lead + (d, d, d * d))
            jet.append(self.t**2 * S.reshape(lead + (d,) * 4))
        return tuple(jet)


def ball_samples(dim: int, radius: float, count: int, seed: int = 0) -> np.ndarray:
    """Deterministic uniform samples of the solid ball B_radius in R^dim."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = radius * rng.uniform(size=(count, 1)) ** (1.0 / dim)
    return r * dirs


# estimate_sweep's chart ball: radius and number of samples
_SWEEP_RADIUS = 1.0
_SWEEP_SAMPLES = 160


@dataclass
class EstimateReport:
    t_values: list[float]
    constants: dict[int, list[float]]  # k -> per-t fitted constant
    ratios: dict[int, float]  # k -> max/min across t


def estimate_sweep(
    metric,
    frames: Sequence[UnitaryFrame],
    t_values: Sequence[float],
    seed: int = 0,
) -> EstimateReport:
    """Scaling constants of the chart metrics: C_0 = sup |g^t - g0| / t, and
    C_k = sup |d^k g^t| / t^k for the derivative orders k = 1, 2.

    Each C_k(t) is the max over the frame list and over ball samples; the
    report records each C_k's max/min ratio across the t list, near 1 when
    C_k is flat in t, and 1 when its sups are roundoff (below 1e-15 at every
    t, tested before the division by t, which lifts roundoff above 1e-15).
    """
    z = ball_samples(metric.dim, _SWEEP_RADIUS, _SWEEP_SAMPLES, seed)
    eye = np.eye(metric.dim)
    constants: dict[int, list[float]] = {k: [] for k in range(3)}
    peaks = [0.0, 0.0, 0.0]
    for t in t_values:
        sup = [0.0, 0.0, 0.0]
        for fr in frames:
            jet = ChartMetric(metric, fr, t).derivative(z, 2)
            sup[0] = max(sup[0], float(np.max(np.abs(jet[0] - eye))))
            for k in (1, 2):
                sup[k] = max(sup[k], float(np.max(np.abs(jet[k]))))
        for k in range(3):
            constants[k].append(sup[k] / t**k if k > 0 else sup[0] / t)
            peaks[k] = max(peaks[k], sup[k])
    ratios = {}
    for k, vals in constants.items():
        lo, hi = min(vals), max(vals)
        ratios[k] = 1.0 if peaks[k] < 1e-15 else hi / max(lo, 1e-300)
    return EstimateReport(list(map(float, t_values)), constants, ratios)
