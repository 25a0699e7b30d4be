"""Random degree-n eigenfunctions.

On S^2 the sampler expands in a real orthonormal spherical-harmonic basis
(2n+1 functions).  One evaluator serves values and gradients: the basis is
taken in solid-harmonic form, a polynomial in z times (x + iy)^k, through
the fixed-degree recurrence in the order, so a point costs O(n) steps, no
angle enters and both poles are ordinary points.  The single correctness
gate for all of it is the addition theorem, which ties the basis back to
the two-point function.

Coefficients come from a counter-based generator (Philox) keyed by the
caller's seed, so samples replay exactly and independent streams can be
derived per sample index without coordination.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HarmonicBasis",
    "HarmonicSample",
    "eval_basis_many",
    "eval_many",
    "eval_gradient_ambient_many",
    "rng_for",
]

_BLOCK = 16384  # points per pass of the basis recurrence
# largest degree whose F_k(+-1) stays finite (its peak over k is 1.4e308)
MAX_DEGREE = 1477


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


def _basis_block(n: int, points: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Order-major values, shape (2n+1, npts), of the degree-n basis at
    (npts, 3) unit points, written into ``out`` when it is given.

    The basis is evaluated as solid harmonics: P-bar_{n,k}(cos theta)
    (cos k phi, sin k phi) = F_k(z) (Re, Im)(x + iy)^k, where
    F_k = P-bar_{n,k} / sin^k theta is a polynomial in z.  F_n is the
    sectoral constant and F_{n+1} = 0; the fixed-degree recurrence in the
    order (DLMF 14.10.1) runs down,
    F_{k-1} = 2k z F_k / sqrt((n+k)(n-k+1))
              - sqrt((n+k+1)(n-k) / ((n+k)(n-k+1))) (x^2+y^2) F_{k+1},
    and sqrt(2) (x + iy)^k is advanced up by complex multiplication.  That is
    O(n) work per point with no angle, square root or division, so both
    poles are ordinary points.  F_k is a Gegenbauer polynomial in z, largest
    at z = +-1, where its peak over k overflows beyond MAX_DEGREE.
    """
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds {MAX_DEGREE}, the largest whose harmonic basis "
                         "stays finite in double precision")
    x, y, z = points.T.copy()  # contiguous rows: each enters n array operations
    cols = np.empty((2 * n + 1, points.shape[0])) if out is None else out
    f_n = 1.0 / math.sqrt(4.0 * math.pi)
    for j in range(1, n + 1):
        f_n *= math.sqrt((2 * j + 1) / (2.0 * j))
    # F_k goes to row n+k, and is then scaled in place by the real part
    cols[2 * n] = f_n
    rho2 = x * x + y * y
    tmp = np.empty_like(z)
    f_up = np.zeros_like(z)  # F_{k+1}
    for k in range(n, 0, -1):
        f_k, f_down = cols[n + k], cols[n + k - 1]
        np.multiply(z, f_k, out=f_down)
        f_down *= 2 * k / math.sqrt((n + k) * (n - k + 1.0))
        np.multiply(rho2, f_up, out=tmp)
        tmp *= math.sqrt((n + k + 1.0) * (n - k) / ((n + k) * (n - k + 1.0)))
        f_down -= tmp
        f_up = f_k
    re, im = np.full_like(z, math.sqrt(2.0)), np.zeros_like(z)
    im_y = rho2  # reused as scratch
    for k in range(1, n + 1):
        np.multiply(re, y, out=tmp)
        np.multiply(im, y, out=im_y)
        re *= x
        re -= im_y
        im *= x
        im += tmp
        np.multiply(cols[n + k], im, out=cols[n - k])
        cols[n + k] *= re
    return cols


def eval_basis_many(basis: HarmonicBasis, points: np.ndarray) -> np.ndarray:
    """Values at an (npts, 3) array of unit points, shape (npts, 2n+1).

    Ordered k = -n..n.  The result is the transpose of an order-major
    array that ``_basis_block`` fills in place, _BLOCK points at a time.
    """
    points = np.asarray(points, float)
    vals = np.empty((basis.size, points.shape[0]))
    for start in range(0, points.shape[0], _BLOCK):
        _basis_block(basis.n, points[start:start + _BLOCK], out=vals[:, start:start + _BLOCK])
    return vals.T


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
        g = coef @ _basis_block(n - 1, x)  # (3, block): one contiguous row per component
        # g.x summed column by column in index order, as np.sum(g * x, axis=1)
        gx = g[0] * x[:, 0] + g[1] * x[:, 1] + g[2] * x[:, 2]
        out = grads[start:start + _BLOCK]
        for c in range(3):
            out[:, c] = g[c] - gx * x[:, c]
    return grads
