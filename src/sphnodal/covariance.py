"""Joint Gaussian structure of (f(x), f(y), grad f(x), grad f(y)).

For the degree-n ensemble the two-point function is u = Q_n(cos theta),
and in the geodesic-aligned frame every covariance block reduces to four
scalars: u itself, the single nonzero gradient cross term d_long, and the
longitudinal/transverse entries of the mixed second-derivative matrix H.
Isotropy makes H diagonal with one longitudinal and m-1 equal transverse
entries.  A record holds these scalars as arrays with the shape of the
separation angles.

The closed forms are checked against central differences of the two-point
function with step h (``finite_difference_blocks``).  Every point pair of
the stencil lies at a separation with a closed-form cosine: cos(theta + k h)
for steps along the geodesic and cos theta cos^2 h +- sin^2 h for steps
across it, so no frame vectors are built.  The differences carry O(h^2)
truncation and O(ulp/h^2) roundoff, about 1e-8 at h = 1e-4.  The test suite
pins these arguments and their signs with explicit geodesic steps in
aligned frames.

The reduced covariance Omega of the two gradients, conditioned on double
vanishing, pairs coordinate j at x with coordinate j at y.  Every block is
diagonal, so Omega is a direct sum of m blocks [[alpha_j, gamma_j],
[gamma_j, alpha_j]]: alpha_0 = a = E/m - rho and gamma_0 = c = h_long - u rho
with rho = d_long^2/(1-u^2), and alpha_j = E/m, gamma_j = h_trans for j >= 1.
Its spectrum alpha_j -+ gamma_j is therefore closed form, and the
determinant, the degeneracy flag, the spectral norm of the deviation
S = I - (m/E) Omega and the symmetric square root all follow from it.  The
assembled Sigma stays as the oracle of the identity
det Sigma = (1-u^2) det Omega, which ties the two determinant routes
together; Omega itself is assembled only in the tests, as the oracle of its
spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import SphereModel, gegenbauer_eval_arrays, gegenbauer_q

__all__ = [
    "CovarianceBlocks",
    "DegenerateCovarianceError",
    "blocks_at",
    "sigma_matrix",
    "omega_spectrum",
    "degenerate",
    "sigma_norm",
    "finite_difference_blocks",
]

# Omega is flagged degenerate when its smallest eigenvalue drops below this
# fraction of the natural scale E/m.
DEGENERACY_RTOL = 1e-7
PSD_SLACK_RTOL = 1e-9
# step of the central differences in finite_difference_blocks
FD_STEP = 1e-4


class DegenerateCovarianceError(ValueError):
    """Reduced covariance matrix is singular at the requested separation."""

    def __init__(self, message: str, eigenvalue: float, theta: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.theta = theta


@dataclass(frozen=True)
class CovarianceBlocks:
    """Aligned-frame scalars that determine every covariance matrix at the
    separation angles theta; each field but ``scale`` has theta's shape."""

    model: SphereModel
    theta: np.ndarray
    u: np.ndarray
    d_long: np.ndarray
    h_long: np.ndarray
    h_trans: np.ndarray
    scale: float  # E/m, the gradient variance per direction


def _check_theta(theta) -> np.ndarray:
    """Separation angles as a float array, refused unless each lies strictly
    inside (0, pi), where the aligned frames exist."""
    theta = np.asarray(theta, dtype=float)
    if not np.all((theta > 0.0) & (theta < np.pi)):  # a NaN fails both
        raise ValueError("separation angle must lie strictly inside (0, pi)")
    return theta


def blocks_at(model: SphereModel, theta) -> CovarianceBlocks:
    """Covariance scalars at separation angles in (0, pi), scalar or array.

    With t = cos theta and (q, q', q'') from the polynomial evaluator:
    u = q, d_long = q' sin theta, h_long = -(1-t^2) q'' + t q',
    h_trans = q'.  First frame vector at x points toward y.
    """
    theta = _check_theta(theta)
    t = np.cos(theta)
    q, dq, d2q = gegenbauer_eval_arrays(model, t)
    h_long = -(1.0 - t * t) * d2q + t * dq
    return CovarianceBlocks(model=model, theta=theta[()], u=q, d_long=dq * np.sin(theta),
                            h_long=h_long, h_trans=dq, scale=model.E / model.m)


def _h_diag(blocks: CovarianceBlocks) -> np.ndarray:
    """Diagonal of H, shape theta.shape + (m,)."""
    h_long = np.asarray(blocks.h_long, dtype=float)
    h = np.empty(h_long.shape + (blocks.model.m,))
    h[..., 0] = h_long
    h[..., 1:] = np.asarray(blocks.h_trans, dtype=float)[..., None]
    return h


def _rho(blocks: CovarianceBlocks) -> np.ndarray:
    """d_long^2 / (1 - u^2), the rank-one correction of the conditioning."""
    u = np.asarray(blocks.u, dtype=float)
    if np.any(1.0 - np.abs(u) < 1e-12):
        raise ValueError("reduced covariance requires |u| < 1")
    d = np.asarray(blocks.d_long, dtype=float)
    return d * d / (1.0 - u * u)


def sigma_matrix(blocks: CovarianceBlocks) -> np.ndarray:
    """Full (2m+2) x (2m+2) covariance [[A, B], [B^t, C]] in the aligned
    frame, stacked over theta's shape: A = [[1,u],[u,1]], B carries +-D, and
    C pairs (E/m) I with H."""
    m = blocks.model.m
    h = _h_diag(blocks)
    j = np.arange(m)
    sigma = np.zeros(h.shape[:-1] + (2 * m + 2, 2 * m + 2))
    sigma[..., [0, 1], [0, 1]] = 1.0
    sigma[..., 0, 1] = sigma[..., 1, 0] = blocks.u
    sigma[..., 0, 2 + m] = sigma[..., 2 + m, 0] = -np.asarray(blocks.d_long)
    sigma[..., 1, 2] = sigma[..., 2, 1] = blocks.d_long
    sigma[..., 2 + j, 2 + j] = sigma[..., 2 + m + j, 2 + m + j] = blocks.scale
    sigma[..., 2 + j, 2 + m + j] = sigma[..., 2 + m + j, 2 + j] = h
    return sigma


def omega_spectrum(blocks: CovarianceBlocks) -> np.ndarray:
    """Eigenvalues of Omega in closed form, shape theta.shape + (m, 2):
    entry [..., j, :] is the pair (alpha_j - gamma_j, alpha_j + gamma_j) of
    block j.  Raises if an eigenvalue is negative beyond roundoff."""
    rho = _rho(blocks)
    gamma = _h_diag(blocks)
    gamma[..., 0] -= blocks.u * rho
    alpha = np.full_like(gamma, blocks.scale)
    alpha[..., 0] -= rho
    eigs = np.stack((alpha - gamma, alpha + gamma), axis=-1)
    smallest = eigs.min(axis=(-2, -1))
    negative = smallest < -PSD_SLACK_RTOL * blocks.scale
    if np.any(negative):
        first = np.argmax(negative.ravel())
        raise DegenerateCovarianceError(
            f"reduced covariance has negative eigenvalue {smallest.min():g}",
            eigenvalue=float(smallest.min()),
            theta=float(np.broadcast_to(blocks.theta, negative.shape).ravel()[first]),
        )
    return eigs


def degenerate(eigs: np.ndarray, scale: float) -> np.ndarray:
    """Mask of the angles whose Omega spectrum ``eigs`` is degenerate."""
    return eigs.min(axis=(-2, -1)) < DEGENERACY_RTOL * scale


def sigma_norm(eigs: np.ndarray, scale: float) -> np.ndarray:
    """Spectral norm of S = I - Omega/scale, max |1 - lambda/scale|."""
    return np.abs(1.0 - eigs / scale).max(axis=(-2, -1))


def finite_difference_blocks(model: SphereModel, theta):
    """Ground-truth (u, d_long, h_long, h_trans) from central differences of
    the two-point function Q(cos d(x, y)) along the aligned-frame directions,
    at separation angles in (0, pi), scalar or array.

    Each point pair of the stencil lies at a separation with a closed-form
    cosine, so the eleven arguments of Q need no frame vectors.  Stepping x
    by s_x toward y and y by s_y away from x gives cos(theta - s_x + s_y);
    stepping both by +-h along a shared transverse direction gives
    cos theta cos^2 h + sin^2 h for equal signs and cos theta cos^2 h - sin^2 h
    for opposite ones.  The errors are O(h^2) truncation, times fourth
    derivatives of Q, and O(ulp/h^2) roundoff of the second differences,
    about 1e-8 at h = FD_STEP = 1e-4, so keep the degree moderate.
    """
    theta = _check_theta(theta)
    h = FD_STEP
    t = np.cos(theta)
    c2, s2 = math.cos(h) ** 2, math.sin(h) ** 2
    along = [np.cos(theta + k * h) for k in (-1, 1, 0, -2, 2, 0)]
    same, opposite = t * c2 + s2, t * c2 - s2
    # value, d_long pair (x stepped by +-h), longitudinal pairs and transverse
    # pairs in the order (s_x, s_y) = (h, h), (h, -h), (-h, h), (-h, -h),
    # evaluated in one recurrence
    u = gegenbauer_q(model, np.clip([t, *along, same, opposite, opposite, same], -1.0, 1.0))
    d_long = (u[1] - u[2]) / (2 * h)
    h_long = (u[3] - u[4] - u[5] + u[6]) / (4 * h * h)
    h_trans = (u[7] - u[8] - u[9] + u[10]) / (4 * h * h)
    return u[0], d_long, h_long, h_trans
