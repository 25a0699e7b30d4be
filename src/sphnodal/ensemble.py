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

POLE_SIN_CUTOFF = 1e-8
SOUTH_CAP = 1e-6
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


def _angles(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """cos theta, sin theta and phi of (npts, 3) unit points."""
    cos_t = np.clip(points[:, 2], -1.0, 1.0)
    sin_t = np.sqrt(np.maximum(0.0, 1.0 - cos_t * cos_t))
    return cos_t, sin_t, np.arctan2(points[:, 1], points[:, 0])


def _legendre_orders(n: int, cos_t: np.ndarray, sin_t: np.ndarray):
    """Yield (k, P-bar_{n,k}, P-bar_{n-1,k}) of cos theta for k = 0..n.

    Fully normalized so that the real harmonics built from them are
    orthonormal on the sphere (the 1/sqrt(4 pi) is folded into P-bar_00);
    P-bar_{n-1,n} is None.  For each order the sectoral seed is climbed
    first, then degrees ascend to n with two rolling arrays.  Sectorals
    underflow to zero harmlessly near the poles.
    """
    p_kk = np.full(cos_t.shape[0], 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(0, n + 1):
        if k > 0:
            p_kk = p_kk * sin_t * math.sqrt((2 * k + 1) / (2.0 * k))
        if k == n:
            yield k, p_kk, None
            return
        p_prev = p_kk
        p_curr = math.sqrt(2 * k + 3.0) * cos_t * p_kk
        for deg in range(k + 2, n + 1):
            a = math.sqrt((4.0 * deg * deg - 1.0) / (deg * deg - k * k))
            b = math.sqrt(((deg - 1.0) ** 2 - k * k) / (4.0 * (deg - 1.0) ** 2 - 1.0))
            p_prev, p_curr = p_curr, a * (cos_t * p_curr - b * p_prev)
        yield k, p_curr, p_prev


def eval_basis_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Values at an (npts, 3) array of unit points, shape (npts, 2n+1).

    Ordered k = -n..n; points at a pole take their azimuth from phi = 0,
    where only the k = 0 harmonic survives anyway.  Points are taken in
    blocks of _BLOCK so the recurrence's arrays stay in cache.
    """
    points = np.asarray(points, float)
    n = basis.n
    vals = np.empty((points.shape[0], basis.size))
    sqrt2 = math.sqrt(2.0)
    for start in range(0, points.shape[0], _BLOCK):
        cos_t, sin_t, phi = _angles(points[start:start + _BLOCK])
        cols = np.empty((basis.size, cos_t.shape[0]))  # order-major: contiguous writes
        for k, pn, _ in _legendre_orders(n, cos_t, sin_t):
            if k == 0:
                cols[n] = pn
            else:
                pn = sqrt2 * pn
                cols[n + k] = pn * np.cos(k * phi)
                cols[n - k] = pn * np.sin(k * phi)
        vals[start:start + _BLOCK] = cols.T
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


def _pole_gradient(sample: HarmonicSample) -> np.ndarray:
    """Ambient gradient at the north pole.

    Only the k = +-1 harmonics have nonzero gradient there; their limit
    slope along the first two coordinate axes is sqrt(2) c_n with
    c_n = sqrt((2n+1)/(4 pi)) sqrt(n(n+1)) / 2.
    """
    n = sample.basis.n
    g = np.zeros(3)
    if n == 0:
        return g
    c_n = math.sqrt((2 * n + 1) / (4.0 * math.pi)) * math.sqrt(n * (n + 1.0)) / 2.0
    g[0] = sample.scale * math.sqrt(2.0) * c_n * sample.a[n + 1]
    g[1] = sample.scale * math.sqrt(2.0) * c_n * sample.a[n - 1]
    return g


def eval_gradient_ambient_many(sample: HarmonicSample, points: np.ndarray) -> np.ndarray:
    """Tangent gradients in ambient coordinates at many points.

    For each order the theta/phi derivative contributions are contracted
    into running accumulators right away, with cos(k phi), sin(k phi)
    advanced by the angle-addition recurrence.  This is the hot path of
    nodal extraction (one call per sample with every segment midpoint), so
    no per-order tables or trig calls are materialized, and points are taken
    in blocks of _BLOCK.  Inside a tiny polar cap the exact north-pole limit
    takes over (the south cap is rejected).
    """
    points = np.asarray(points, float)
    n = sample.basis.n
    a = sample.a
    grads = np.zeros_like(points)
    sqrt2 = math.sqrt(2.0)
    dth_norm = math.sqrt((2 * n + 1.0) / (2 * n - 1.0)) if n >= 1 else 0.0
    for start in range(0, points.shape[0], _BLOCK):
        out = grads[start:start + _BLOCK]
        cos_t, sin_t, phi = _angles(points[start:start + _BLOCK])
        polar = sin_t < POLE_SIN_CUTOFF
        if n > 0:
            npts = cos_t.shape[0]
            safe_sin = np.where(polar, 1.0, sin_t)
            df_dth = np.zeros(npts)
            df_dphi_over_sin = np.zeros(npts)
            cos_p = np.cos(phi)
            sin_p = np.sin(phi)
            ck = np.ones(npts)   # cos(k phi)
            sk = np.zeros(npts)  # sin(k phi)
            for k, pn, pn_prev in _legendre_orders(n, cos_t, sin_t):
                if k > 0:
                    ck, sk = ck * cos_p - sk * sin_p, sk * cos_p + ck * sin_p
                dpk = n * cos_t * pn
                if pn_prev is not None:
                    dpk = dpk - dth_norm * math.sqrt(float(n * n - k * k)) * pn_prev
                dpk = dpk / safe_sin
                if k == 0:
                    df_dth += a[n] * dpk
                else:
                    df_dth += sqrt2 * dpk * (a[n + k] * ck + a[n - k] * sk)
                    df_dphi_over_sin += (sqrt2 * k) * (pn / safe_sin) * (a[n - k] * ck - a[n + k] * sk)
            e_theta = np.stack([cos_t * cos_p, cos_t * sin_p, -sin_t], axis=1)
            e_phi = np.stack([-sin_p, cos_p, np.zeros(npts)], axis=1)
            out[:] = sample.scale * (df_dth[:, None] * e_theta
                                     + df_dphi_over_sin[:, None] * e_phi)
        if np.any(polar):
            if np.any(cos_t[polar] <= 0):
                raise ValueError("gradient is not provided inside the south-pole cap")
            out[polar] = _pole_gradient(sample)
    return grads


def eval_gradient_ambient(sample: HarmonicSample, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    if geometry.geodesic_distance(x, -geometry.north_pole(2)) <= SOUTH_CAP:
        raise ValueError("gradient is not provided inside the south-pole cap")
    return eval_gradient_ambient_many(sample, x[None, :])[0]


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
