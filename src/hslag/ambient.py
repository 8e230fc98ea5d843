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
each metric fixes once from a bound on |Y| (see SymplecticExpMetric), so
the evaluated G is one polynomial in the point.

Every metric evaluator (EuclideanMetric, SymplecticExpMetric, ChartMetric)
has two methods: value(points) returns G with shape [..., i, j], and
derivative(points, order=1) returns the jet (G, dG), or (G, dG, d2G) when
order=2, with dG[..., mu, i, j] = dG_ij / dp_mu and
d2G[..., mu, nu, i, j] = d^2 G_ij / dp_mu dp_nu.  The jet's G equals value's
bit for bit.

Frames: a unitary frame at p is a real matrix upsilon with
upsilon^T G(p) upsilon = I and upsilon^T Omega0 upsilon = Omega0, built by
Gram-Schmidt over the complex structure J_p.  Affine charts z -> p + upsilon z
pull omega back to omega0 exactly; the scaled pullback metric
g^t(z) = upsilon^T G(p + t upsilon z) upsilon is the object all scaling
estimates and the reduction pipeline consume, evaluated as batched matrix
products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

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

def _eye_like(shape: tuple, d: int, dtype) -> np.ndarray:
    out = np.zeros(shape + (d, d), dtype=dtype)
    out[..., range(d), range(d)] = 1.0
    return out


class EuclideanMetric:
    """The flat metric g0 = identity on R^{2n}; trivially compatible."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 2 * n

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


def symmetric_anticommuting_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of {X = X^T : X Omega0 = -Omega0 X} in R^{2n x 2n}.

    This is the tangent space (at the identity) of compatible metrics inside
    the exponential family; its dimension is n(n+1).
    """
    d = 2 * n
    om = standard_symplectic_matrix(n)
    rows = []
    # antisymmetry constraints X_ij - X_ji = 0
    for i in range(d):
        for j in range(i + 1, d):
            r = np.zeros((d, d))
            r[i, j], r[j, i] = 1.0, -1.0
            rows.append(r.reshape(-1))
    # anticommutator constraints (X Om + Om X)_ij = 0
    for i in range(d):
        for j in range(d):
            r = np.zeros((d, d))
            # d/dX_kl of (X Om + Om X)_ij = delta_ik Om_lj + Om_ik delta_jl
            for k in range(d):
                for l in range(d):
                    r[k, l] = (om[l, j] if k == i else 0.0) + (om[i, k] if l == j else 0.0)
            rows.append(r.reshape(-1))
    null = scipy.linalg.null_space(np.array(rows))
    if null.shape[1] != n * (n + 1):
        raise RankDeficiencyError(
            f"anticommuting-symmetric space has dim {null.shape[1]}, expected {n * (n + 1)}"
        )
    return [null[:, k].reshape(d, d) for k in range(null.shape[1])]


@dataclass
class SymplecticExpMetric:
    """G(p) = expm(Y(p)), Y(p) = amplitude * sum_k (A_k cos(m_k.p) + B_k sin(m_k.p)).

    A_k, B_k are symmetric and anticommute with Omega0, so G is compatible at
    every point without any retraction, and 2*pi-periodic since the wave
    vectors m_k are integers.  One loop over the powers of Y gives G and its
    first and second Frechet derivatives along the generator's derivatives
    (the shared-powers recurrence of Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 2009):

        T_j = T_{j-1} Y / j,
        F_j(E) = (F_{j-1}(E) Y + T_{j-1} E) / j,
        S_j(E1,E2) = (S_{j-1} Y + F_{j-1}(E1) E2 + F_{j-1}(E2) E1) / j,

    G = sum T_j, dG = sum F_j(dY), d2G = sum S_j(dY, dY) + sum F_j(d2Y).

    The number of terms J is fixed once, at construction, from the bound
    r = amplitude * sum_k sqrt(|A_k|_F^2 + |B_k|_F^2) >= sup_p |Y(p)|_2: it is
    the fewest terms whose geometric tail bound for the order-2 series is
    below 2^-60 (14 terms for the default amplitude 0.05).  value and every
    order of derivative sum the same J terms, and J never depends on the
    points, so the jet stays one polynomial in the point: exact under
    complex-step differentiation, and the jet contract holds bit for bit.
    The bound grows with the amplitude, so J does too (about 27 at 0.5);
    there is no scaling and squaring.
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
        for name, coeffs in (("cos", self.cos_coeffs), ("sin", self.sin_coeffs)):
            for X in coeffs:
                if np.max(np.abs(X - X.T)) > 1e-12 or np.max(np.abs(X @ om + om @ X)) > 1e-12:
                    raise ConfigError(f"{name} coefficient not in the compatible tangent space")
        if self.wave_vectors.shape != (len(self.cos_coeffs), d):
            raise ConfigError("wave vector shape mismatch")
        if np.max(np.abs(self.wave_vectors - np.round(self.wave_vectors))) > 0:
            raise ConfigError("wave vectors must be integers (periodicity)")
        # |A c + B s|_F <= sqrt(|A|_F^2 + |B|_F^2) whenever c^2 + s^2 = 1
        norms = np.sqrt(np.sum(self.cos_coeffs**2 + self.sin_coeffs**2, axis=(1, 2)))
        self._terms = _series_length(abs(self.amplitude) * float(np.sum(norms)))

    @property
    def dim(self) -> int:
        return 2 * self.n

    def _generator_jet(self, points: np.ndarray, order: int) -> list[np.ndarray]:
        """[Y, dY, d2Y][:order + 1] from one evaluation of the phases.

        dY[..., mu, i, j] = dY_ij / dp_mu and d2Y[..., mu, nu, i, j] likewise.
        """
        arg = np.einsum("...m,km->...k", points, self.wave_vectors)
        c, s = np.cos(arg), np.sin(arg)
        m, A, B = self.wave_vectors, self.cos_coeffs, self.sin_coeffs
        jet = [np.einsum("...k,kij->...ij", c, A) + np.einsum("...k,kij->...ij", s, B)]
        if order >= 1:
            jet.append(
                np.einsum("...k,km,kij->...mij", -s, m, A)
                + np.einsum("...k,km,kij->...mij", c, m, B)
            )
        if order >= 2:
            mm = np.einsum("km,kn->kmn", m, m)
            jet.append(
                np.einsum("...k,kmn,kij->...mnij", -c, mm, A)
                + np.einsum("...k,kmn,kij->...mnij", -s, mm, B)
            )
        return [self.amplitude * x for x in jet]

    def _jet(self, points: np.ndarray, order: int) -> tuple[np.ndarray, ...]:
        """(G, dG, d2G)[:order + 1] from one pass of the series recurrences.

        F runs over the stacked directions e of [dY; d2Y] and S over the
        pairs (dY_mu, dY_nu); d2G is the sum of S plus the d2Y part of F.
        Both are stored direction-inside, F as [..., a, e, j] and S as
        [..., a, mu, nu, j], so each term is one matrix product per point
        rather than one per direction.
        """
        if order > 2:
            raise ValueError(f"metric jets are available to order 2, not {order}")
        Y, *dY = self._generator_jet(np.asarray(points), order)
        lead, d = Y.shape[:-2], Y.shape[-1]
        T = _eye_like(lead, d, Y.dtype)
        G = T.copy()
        if order >= 1:
            E = np.concatenate([D.reshape(lead + (-1, d, d)) for D in dY], axis=-3)
            E = np.moveaxis(E, -3, -2).reshape(lead + (d, -1))  # [k, (e, j)]
            F, dG = np.zeros_like(E), np.zeros_like(E)
        if order == 2:
            dY1 = E[..., : d * d]  # [k, (nu, j)] for the first-order directions
            S = np.zeros(lead + (d, d, d, d), dtype=Y.dtype)
            d2G = np.zeros_like(S)
        # In-place updates keep the per-term temporaries few; they round
        # exactly as the recurrences written out of place.
        for j in range(1, self._terms + 1):
            if order == 2:
                F1 = F.reshape(lead + (d, -1, d))[..., :d, :].reshape(lead + (d * d, d))
                P = (F1 @ dY1).reshape(S.shape)  # P[a, mu, nu, j] = (F_mu dY_nu)[a, j]
                S = (S.reshape(lead + (-1, d)) @ Y).reshape(P.shape)
                S += P
                S += np.swapaxes(P, -3, -2)
                S /= j
                d2G += S
            if order >= 1:
                F = (F.reshape(lead + (-1, d)) @ Y).reshape(E.shape)
                F += T @ E
                F /= j
                dG += F
            T = T @ Y
            T /= j
            G += T
        if order == 0:
            return (G,)
        dG = np.moveaxis(dG.reshape(lead + (d, -1, d)), -3, -2)  # [e, a, j]
        if order == 1:
            return G, dG
        d2G = np.moveaxis(d2G, -4, -2) + dG[..., d:, :, :].reshape(S.shape)
        return G, dG[..., :d, :, :], d2G

    def value(self, points: np.ndarray) -> np.ndarray:
        return self._jet(points, 0)[0]

    def derivative(self, points: np.ndarray, order: int = 1) -> tuple[np.ndarray, ...]:
        """The jet (G, dG), or (G, dG, d2G) when order=2, from one series."""
        return self._jet(points, order)


def _series_length(r: float) -> int:
    """Fewest series terms J whose omitted order-2 tail is below 2^-60.

    With |Y|_2 <= r the j-th term of the d2G series is at most r^(j-2)/(j-2)!
    per unit pair of directions (T_j and F_j are smaller), and after the
    J-th term each falls by a factor r/J or more, so the tail after J terms
    is at most r^(J-1)/(J-1)! / (1 - r/J)."""
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
    basis = symmetric_anticommuting_basis(n)
    waves, cos_c, sin_c = [], [], []
    while len(waves) < num_waves:
        m = rng.integers(-2, 3, size=2 * n)
        if not np.any(m):
            continue
        waves.append(m)
        ca = rng.normal(size=len(basis))
        cb = rng.normal(size=len(basis))
        cos_c.append(sum(a * X for a, X in zip(ca, basis)) / np.sqrt(len(basis)))
        sin_c.append(sum(b * X for b, X in zip(cb, basis)) / np.sqrt(len(basis)))
    return SymplecticExpMetric(
        n, np.array(waves, dtype=float), np.array(cos_c), np.array(sin_c), amplitude
    )


# ---------------------------------------------------------------------------
# unitary frames


@dataclass
class UnitaryFrame:
    """A point of the ambient torus plus a frame matrix unitary for (G, omega0)."""

    point: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.point = np.asarray(self.point, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)


def _gram_schmidt_frame(G: np.ndarray, candidates: Sequence[np.ndarray]) -> np.ndarray:
    """Complex Gram-Schmidt against J = -G^{-1} Omega0.

    Orthonormalizes w.r.t. the Hermitian form h(u, v) = G(u, v) + i omega0(u, v)
    on the complex vector space (R^{2n}, J); columns come out interleaved as
    (u_1, J u_1, ..., u_n, J u_n), which gives upsilon^T G upsilon = I and
    upsilon^T Omega0 upsilon = Omega0 in the standard conventions.
    """
    d = G.shape[0]
    n = d // 2
    om = standard_symplectic_matrix(n)
    J = -np.linalg.solve(G, om)
    built: list[np.ndarray] = []
    cand = list(candidates)
    cols = []
    for _ in range(n):
        v = None
        while cand:
            v = np.array(cand.pop(0), dtype=float)
            for u in built:
                Ju = J @ u
                v = v - (u @ G @ v) * u - (Ju @ G @ v) * Ju
            norm2 = float(v @ G @ v)
            if norm2 > 1e-16:
                v = v / np.sqrt(norm2)
                break
            v = None
        if v is None:
            raise RankDeficiencyError("frame Gram-Schmidt ran out of independent seeds")
        built.append(v)
        cols.extend([v, J @ v])
    return np.stack(cols, axis=-1)


def unitary_frame(metric, p: np.ndarray, seed: int = 0) -> UnitaryFrame:
    """A (G, omega0)-unitary frame at p from a seeded random start."""
    p = np.asarray(p, dtype=float)
    G = metric.value(p)
    rng = np.random.default_rng(seed)
    candidates = [rng.normal(size=G.shape[0]) for _ in range(4 * G.shape[0])]
    return UnitaryFrame(p, _gram_schmidt_frame(G, candidates))


def frame_fit(metric, p: np.ndarray, target: np.ndarray) -> UnitaryFrame:
    """Correct a nearly-unitary frame to an exact one at p.

    Seeds the Gram-Schmidt with the target's x_j columns, so the output is a
    smooth function of (p, target) near any valid frame and reduces to the
    identity correction when the target is already unitary.
    """
    p = np.asarray(p, dtype=float)
    G = metric.value(p)
    target = np.asarray(target, dtype=float)
    seeds = [target[:, 2 * j] for j in range(target.shape[1] // 2)]
    extra = [np.eye(target.shape[0])[:, k] for k in range(target.shape[0])]
    return UnitaryFrame(p, _gram_schmidt_frame(G, seeds + extra))


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

    Implements the same value/derivative contract as the ambient metrics, so
    the graph-volume machinery can run unchanged in chart coordinates; a jet
    makes one base call and pulls back each order.  At t = 0
    (or for the flat metric) it is identically the identity matrix.
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
        # chain rule d/dz_m = t sum_n u[n, m] d/dp_n on each direction slot
        if order >= 1:
            D = u.T @ (u.T @ dG[0] @ u).reshape(lead + (d, d * d))
            jet.append(self.t * D.reshape(lead + (d, d, d)))
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


@dataclass
class EstimateReport:
    t_values: list[float]
    constants: dict[int, list[float]]  # k -> per-t fitted constant
    ratios: dict[int, float]  # k -> max/min across t
    bounded: bool
    ratio_bound: float


def estimate_sweep(
    metric,
    frames: Sequence[UnitaryFrame],
    t_values: Sequence[float],
    k_max: int = 2,
    radius: float = 1.0,
    num_samples: int = 160,
    seed: int = 0,
    ratio_bound: float = 2.0,
) -> EstimateReport:
    """Scaling constants of the chart metrics: sup |d^k (g^t - g0)| / t^k.

    For each derivative order k the constant C_k(t) is the max over the frame
    list and over ball samples; the report records whether each C_k stays
    within ratio_bound across the t list (flat behaviour in t).
    """
    z = ball_samples(metric.dim, radius, num_samples, seed)
    eye = np.eye(metric.dim)
    constants: dict[int, list[float]] = {k: [] for k in range(k_max + 1)}
    for t in t_values:
        sup = {k: 0.0 for k in range(k_max + 1)}
        for fr in frames:
            cm = ChartMetric(metric, fr, t)
            jet = cm.derivative(z, k_max) if k_max else (cm.value(z),)
            sup[0] = max(sup[0], float(np.max(np.abs(jet[0] - eye))))
            for k in range(1, k_max + 1):
                sup[k] = max(sup[k], float(np.max(np.abs(jet[k]))))
        for k in range(k_max + 1):
            constants[k].append(sup[k] / t**k if k > 0 else sup[0] / t)
    ratios = {}
    for k, vals in constants.items():
        lo, hi = min(vals), max(vals)
        ratios[k] = 1.0 if hi < 1e-15 else hi / max(lo, 1e-300)
    bounded = all(r <= ratio_bound for r in ratios.values())
    return EstimateReport(list(map(float, t_values)), constants, ratios, bounded, ratio_bound)
