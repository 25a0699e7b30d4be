"""Joint Gaussian structure of (f(x), f(y), grad f(x), grad f(y)).

For the degree-n ensemble the two-point function is u = Q_n(cos theta),
and in the geodesic-aligned frame every covariance block reduces to four
scalars: u itself, the single nonzero gradient cross term d_long, and the
longitudinal/transverse entries of the mixed second-derivative matrix H.
Isotropy makes H diagonal with one longitudinal and m-1 equal transverse
entries; the closed forms below are pinned by finite-difference oracles on
the two-point function in the test suite.  A record holds these scalars as
arrays with the shape of the separation angles.

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

from . import geometry
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


def blocks_at(model: SphereModel, theta) -> CovarianceBlocks:
    """Covariance scalars at separation angles in (0, pi), scalar or array.

    With t = cos theta and (q, q', q'') from the polynomial evaluator:
    u = q, d_long = q' sin theta, h_long = -(1-t^2) q'' + t q',
    h_trans = q'.  First frame vector at x points toward y.
    """
    theta = np.asarray(theta, dtype=float)
    if np.any((theta <= 0.0) | (theta >= np.pi)):
        raise ValueError("separation angle must lie strictly inside (0, pi)")
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


def finite_difference_blocks(model: SphereModel, theta: float):
    """Ground-truth (u, d_long, h_long, h_trans) from central differences of
    the two-point function Q(cos d(x, y)) along the aligned-frame directions.

    Pins both the closed forms and the sign conventions; errors are
    O(FD_STEP^2) times fourth derivatives of Q, so keep the degree moderate.
    """
    m, h = model.m, FD_STEP
    pole = geometry.north_pole(m)
    x = math.sin(theta) * np.eye(m + 1)[0] + math.cos(theta) * pole
    frame_x, frame_y = geometry.aligned_frames(x, pole)

    e1x, e1y = frame_x.vectors[0], frame_y.vectors[0]
    v2x, v2y = frame_x.vectors[1], frame_y.vectors[1]
    step_x = lambda v, s: geometry.sphere_exp(x, v, s)
    step_y = lambda v, s: geometry.sphere_exp(pole, v, s)

    # the eleven point pairs whose two-point function enters the differences,
    # evaluated in one recurrence
    pairs = [(x, pole), (step_x(e1x, h), pole), (step_x(e1x, -h), pole)]
    for vx, vy in ((e1x, e1y), (v2x, v2y)):
        pairs += [(step_x(vx, sx), step_y(vy, sy)) for sx in (h, -h) for sy in (h, -h)]
    u = gegenbauer_q(model, np.clip([np.dot(a, b) for a, b in pairs], -1.0, 1.0)).tolist()

    u0 = u[0]
    d_long = (u[1] - u[2]) / (2 * h)
    h_long = (u[3] - u[4] - u[5] + u[6]) / (4 * h * h)
    h_trans = (u[7] - u[8] - u[9] + u[10]) / (4 * h * h)
    return u0, d_long, h_long, h_trans
