"""Random degree-n eigenfunctions.

On S^2 the sampler expands in a real orthonormal spherical-harmonic basis
(2n+1 functions) evaluated through stable fully-normalized associated
Legendre recurrences; the single correctness gate for all of it is the
addition theorem, which ties the basis back to the two-point function.
For general m a dense Gaussian-field fallback draws jointly correct values
on small point sets straight from the covariance Q_n(cos d).

Coefficients come from a counter-based generator (Philox) keyed by the
caller's seed, so samples replay exactly and independent streams can be
derived per sample index without coordination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .specfun import SphereModel, gegenbauer_q

__all__ = [
    "HarmonicBasis",
    "HarmonicSample",
    "eval_basis",
    "sample_function",
    "eval",
    "eval_many",
    "eval_gradient",
    "eval_gradient_ambient",
    "eval_gradient_ambient_many",
    "sample_gaussian_field",
    "sample_to_csv",
    "rng_for",
]

GAUSSIAN_FIELD_MAX_POINTS = 4000
_BLOCK = 16384  # points per pass of the Legendre recurrence


def rng_for(*key: int) -> np.random.Generator:
    """Deterministic generator for a tuple key such as (seed, sample idx)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class HarmonicBasis:
    """Real orthonormal spherical harmonics of one degree on S^2.

    Functions are indexed k = -n..n: negative k are the sin(|k| phi)
    harmonics, k = 0 the zonal one, positive k the cos(k phi) ones.
    """

    n: int

    @property
    def size(self) -> int:
        return 2 * self.n + 1


@dataclass(frozen=True)
class HarmonicSample:
    """One random eigenfunction: i.i.d. standard normal coefficients against
    the orthonormal basis, scaled by sqrt(|S^2| / N) so that the pointwise
    variance is exactly 1."""

    basis: HarmonicBasis
    a: np.ndarray
    scale: float


def _legendre_orders(n: int, cos_t: np.ndarray, sin_t: np.ndarray):
    """Yield (k, P-bar_{n,k}) of cos theta for k = 0..n.

    Fully normalized so that the real harmonics built from them are
    orthonormal on the sphere (the 1/sqrt(4 pi) is folded into P-bar_00).
    For each order the sectoral seed is climbed first, then degrees ascend
    to n with two rolling arrays.  Sectorals underflow to zero harmlessly
    near the poles.
    """
    p_kk = np.full(cos_t.shape[0], 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(0, n + 1):
        if k > 0:
            p_kk = p_kk * sin_t * math.sqrt((2 * k + 1) / (2.0 * k))
        if k == n:
            yield k, p_kk
            return
        p_prev = p_kk
        p_curr = math.sqrt(2 * k + 3.0) * cos_t * p_kk
        for deg in range(k + 2, n + 1):
            a = math.sqrt((4.0 * deg * deg - 1.0) / (deg * deg - k * k))
            b = math.sqrt(((deg - 1.0) ** 2 - k * k) / (4.0 * (deg - 1.0) ** 2 - 1.0))
            p_prev, p_curr = p_curr, a * (cos_t * p_curr - b * p_prev)
        yield k, p_curr


def _basis_block(n: int, points: np.ndarray) -> np.ndarray:
    """Order-major values, shape (2n+1, npts), of the degree-n basis at
    (npts, 3) unit points.

    cos(k phi) and sin(k phi) are advanced by angle addition; points at a
    pole take their azimuth from phi = 0, where only the k = 0 harmonic
    survives anyway.
    """
    cos_t = np.clip(points[:, 2], -1.0, 1.0)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    phi = np.arctan2(points[:, 1], points[:, 0])
    cos_p, sin_p = np.cos(phi), np.sin(phi)
    ck, sk = np.ones_like(phi), np.zeros_like(phi)  # cos(k phi), sin(k phi)
    cols = np.empty((2 * n + 1, cos_t.shape[0]))
    for k, pn in _legendre_orders(n, cos_t, sin_t):
        if k == 0:
            cols[n] = pn
        else:
            ck, sk = ck * cos_p - sk * sin_p, sk * cos_p + ck * sin_p
            pn = math.sqrt(2.0) * pn
            cols[n + k] = pn * ck
            cols[n - k] = pn * sk
    return cols


def eval_basis_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Values at an (npts, 3) array of unit points, shape (npts, 2n+1).

    Ordered k = -n..n.  Points are taken in blocks of _BLOCK so the
    recurrence's arrays stay in cache.
    """
    points = np.asarray(points, float)
    vals = np.empty((points.shape[0], basis.size))
    for start in range(0, points.shape[0], _BLOCK):
        vals[start:start + _BLOCK] = _basis_block(basis.n, points[start:start + _BLOCK]).T
    return vals


def eval_basis(basis: HarmonicBasis, x: np.ndarray) -> np.ndarray:
    """Values of the 2n+1 basis harmonics at one point."""
    return eval_basis_many(basis, np.asarray(x, float)[None, :])[0]


def sample_function(basis: HarmonicBasis, seed: int) -> HarmonicSample:
    """Draw i.i.d. N(0,1) coefficients from the Philox stream of ``seed``."""
    a = rng_for(seed).standard_normal(basis.size)
    scale = math.sqrt(4.0 * math.pi / basis.size)
    return HarmonicSample(basis=basis, a=a, scale=scale)


def eval(sample: HarmonicSample, x: np.ndarray) -> float:  # noqa: A001
    return float(eval_basis(sample.basis, x) @ sample.a) * sample.scale


def eval_many(sample: HarmonicSample, points: np.ndarray) -> np.ndarray:
    return (eval_basis_many(sample.basis, points) @ sample.a) * sample.scale


@functools.lru_cache(maxsize=None)
def _ladder(n: int) -> np.ndarray:
    """Ladder matrix G, shape (2n+1, 2n-1, 3), for degree n >= 1: the
    partial d/dx_c of the solid harmonic r^n Y_{n,j}(x/r) is the solid
    harmonic sum_p G[j, p, c] r^(n-1) Y_{n-1,p}(x/r).

    With Z^q = r^n P-bar_{n,|q|} e^{iq phi} (no Condon-Shortley phase) and
    s = sqrt((2n+1)/(2n-1)): d_z Z^q = s sqrt(n^2-q^2) Z^q_{n-1},
    (d_x + i d_y) Z^q = -+ s sqrt((n-q)(n-q-1)) Z^{q+1}_{n-1} (- for q >= 0),
    (d_x - i d_y) Z^q = +- s sqrt((n+q)(n+q-1)) Z^{q-1}_{n-1} (+ for q > 0);
    a unitary change of basis carries them to the real harmonics.
    """
    s = math.sqrt((2 * n + 1) / (2 * n - 1.0))
    up, down, dz = (np.zeros((2 * n + 1, 2 * n - 1), complex) for _ in range(3))
    for q in range(-n, n + 1):
        if abs(q) < n:
            dz[n + q, n - 1 + q] = s * math.sqrt(n * n - q * q)
        if abs(q + 1) < n:
            up[n + q, n + q] = (-s if q >= 0 else s) * math.sqrt((n - q) * (n - q - 1))
        if abs(q - 1) < n:
            down[n + q, n + q - 2] = (s if q > 0 else -s) * math.sqrt((n + q) * (n + q - 1))

    def to_real(deg: int) -> np.ndarray:  # rows: real harmonics in terms of Z^q
        u = np.zeros((2 * deg + 1, 2 * deg + 1), complex)
        u[deg, deg] = 1.0
        for k in range(1, deg + 1):
            u[deg + k, [deg + k, deg - k]] = math.sqrt(0.5), math.sqrt(0.5)
            u[deg - k, [deg + k, deg - k]] = -1j * math.sqrt(0.5), 1j * math.sqrt(0.5)
        return u

    u_n, u_down = to_real(n), to_real(n - 1).conj().T
    g = np.stack([(u_n @ d @ u_down).real
                  for d in ((up + down) / 2, (up - down) / 2j, dz)], axis=2)
    g.flags.writeable = False
    return g


def eval_gradient_ambient_many(sample: HarmonicSample, points: np.ndarray) -> np.ndarray:
    """Tangent gradients in ambient coordinates at many points.

    The gradient g of the solid extension r^n f(x/r) is the degree-(n-1)
    basis times the ladder matrix, and g - (g.x) x is its tangent part; no
    angle enters, so both poles are ordinary points.  This is the hot path
    of nodal extraction (every segment midpoint of every sample).
    """
    points = np.asarray(points, float)
    n = sample.basis.n
    grads = np.zeros_like(points)
    if n == 0:
        return grads
    coef = sample.scale * np.tensordot(sample.a, _ladder(n), axes=(0, 0)).T  # (3, 2n-1)
    for start in range(0, points.shape[0], _BLOCK):
        x = points[start:start + _BLOCK]
        g = (coef @ _basis_block(n - 1, x)).T
        grads[start:start + _BLOCK] = g - np.sum(g * x, axis=1)[:, None] * x
    return grads


def eval_gradient_ambient(sample: HarmonicSample, x: np.ndarray) -> np.ndarray:
    return eval_gradient_ambient_many(sample, np.asarray(x, float)[None, :])[0]


def eval_gradient(sample: HarmonicSample, x: np.ndarray,
                  frame: geometry.TangentFrame | None = None) -> np.ndarray:
    """Gradient coordinates in ``frame``, defaulting to the frame carried
    to x by parallel transport from the north pole."""
    x = np.asarray(x, float)
    g = eval_gradient_ambient(sample, x)
    if frame is None:
        frame = geometry.transport_frame(x, geometry.reference_frame(2))
    return frame.coords(g)


def sample_to_csv(sample: HarmonicSample, mesh) -> str:
    """Vertex values of one sample on a mesh as CSV, for external viewers."""
    values = eval_many(sample, mesh.vertices)
    lines = ["vertex,f"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def sample_gaussian_field(model: SphereModel, points: np.ndarray, seed: int) -> np.ndarray:
    """One joint draw of f at arbitrary points of S^m from the covariance
    Q_n(cos d(x_i, x_j)), by Cholesky after a 1e-10 diagonal jitter."""
    points = np.asarray(points, float)
    k = points.shape[0]
    if k > GAUSSIAN_FIELD_MAX_POINTS:
        raise ValueError(f"point set too large for the dense fallback ({k} > {GAUSSIAN_FIELD_MAX_POINTS})")
    gram = np.clip(points @ points.T, -1.0, 1.0)
    cov = gegenbauer_q(model, gram) if k > 1 else np.ones((1, 1))
    cov = np.asarray(cov, float).reshape(k, k)
    cov[np.diag_indices(k)] = 1.0
    try:
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance factorization failed even with jitter") from exc
    z = rng_for(seed).standard_normal(k)
    return chol @ z
