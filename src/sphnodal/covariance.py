"""Joint Gaussian structure of (f(x), f(y), grad f(x), grad f(y)).

For the degree-n ensemble the two-point function is u = Q_n(cos theta),
and in the geodesic-aligned frame every covariance block reduces to four
scalars: u itself, the single nonzero gradient cross term d_long, and the
longitudinal/transverse entries of the mixed second-derivative matrix H.
Isotropy makes H diagonal with one longitudinal and m-1 equal transverse
entries; the closed forms below are pinned by finite-difference oracles on
the two-point function in the test suite.

Assembled objects: the full covariance Sigma of the 2m+2 dimensional
vector, the reduced covariance Omega of the gradients conditioned on
double vanishing, the deviation matrix S = I - (m/E) Omega and its
spectral norm.  The identity det Sigma = (1-u^2) det Omega ties the two
determinant routes together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import SphereModel, gegenbauer_eval_arrays

__all__ = [
    "CovarianceBlocks",
    "GaussianJoint",
    "DegenerateCovarianceError",
    "blocks_at",
    "blocks_at_many",
    "sigma_matrix",
    "omega_matrix",
    "gaussian_joint",
    "s_matrix",
    "finite_difference_blocks",
]

# Omega is flagged degenerate when its smallest eigenvalue drops below this
# fraction of the natural scale E/m.
DEGENERACY_RTOL = 1e-7
PSD_SLACK_RTOL = 1e-9


class DegenerateCovarianceError(ValueError):
    """Reduced covariance matrix is singular at the requested separation."""

    def __init__(self, message: str, eigenvalue: float, theta: float | None = None):
        super().__init__(message)
        self.eigenvalue = eigenvalue
        self.theta = theta


@dataclass(frozen=True)
class CovarianceBlocks:
    """Aligned-frame scalars that determine every covariance matrix at a
    fixed separation angle theta."""

    model: SphereModel
    theta: float
    u: float
    d_long: float
    h_long: float
    h_trans: float
    scale: float  # E/m, the gradient variance per direction


@dataclass(frozen=True)
class GaussianJoint:
    """Omega with its spectrum, the determinants and the degeneracy flag.
    ``omega_eigs`` is ascending and column j of ``omega_vecs`` is the
    eigenvector of ``omega_eigs[j]``."""

    omega: np.ndarray
    omega_eigs: np.ndarray
    omega_vecs: np.ndarray
    a_det: float
    omega_det: float
    degenerate: bool


def blocks_at_many(model: SphereModel, thetas) -> list[CovarianceBlocks]:
    """Covariance scalars at each of a sequence of separation angles in (0, pi).

    With t = cos theta and (q, q', q'') from the polynomial evaluator:
    u = q, d_long = q' sin theta, h_long = -(1-t^2) q'' + t q',
    h_trans = q'.  First frame vector at x points toward y.
    """
    thetas = np.asarray(thetas, dtype=float)
    if np.any((thetas <= 0.0) | (thetas >= np.pi)):
        raise ValueError("separation angle must lie strictly inside (0, pi)")
    t = np.cos(thetas)
    s = np.sin(thetas)
    q, dq, d2q = gegenbauer_eval_arrays(model, t)
    h_long = -(1.0 - t * t) * d2q + t * dq
    scale = model.E / model.m
    return [
        CovarianceBlocks(model=model, theta=float(th), u=float(uu), d_long=float(dd),
                         h_long=float(hl), h_trans=float(ht), scale=scale)
        for th, uu, dd, hl, ht in zip(thetas, q, dq * s, h_long, dq)
    ]


def blocks_at(model: SphereModel, theta: float) -> CovarianceBlocks:
    """Covariance scalars at one separation angle in (0, pi)."""
    return blocks_at_many(model, [float(theta)])[0]


def _h_matrix(blocks: CovarianceBlocks) -> np.ndarray:
    m = blocks.model.m
    h = np.full(m, blocks.h_trans)
    h[0] = blocks.h_long
    return np.diag(h)


def _d_vector(blocks: CovarianceBlocks) -> np.ndarray:
    d = np.zeros(blocks.model.m)
    d[0] = blocks.d_long
    return d


def sigma_matrix(blocks: CovarianceBlocks) -> np.ndarray:
    """Full (2m+2) x (2m+2) covariance [[A, B], [B^t, C]] in the aligned
    frame: A = [[1,u],[u,1]], B carries +-D, and C pairs (E/m) I with H."""
    m = blocks.model.m
    scale = blocks.scale
    d = _d_vector(blocks)
    h = _h_matrix(blocks)
    sigma = np.zeros((2 * m + 2, 2 * m + 2))
    sigma[0, 0] = sigma[1, 1] = 1.0
    sigma[0, 1] = sigma[1, 0] = blocks.u
    sigma[0, 2 + m:] = -d
    sigma[1, 2:2 + m] = d
    sigma[2 + m:, 0] = -d
    sigma[2:2 + m, 1] = d
    sigma[2:2 + m, 2:2 + m] = scale * np.eye(m)
    sigma[2 + m:, 2 + m:] = scale * np.eye(m)
    sigma[2:2 + m, 2 + m:] = h
    sigma[2 + m:, 2:2 + m] = h.T
    return sigma


def omega_matrix(blocks: CovarianceBlocks) -> np.ndarray:
    """Reduced 2m x 2m covariance of the gradients given f(x) = f(y) = 0.

    Schur complement of the A block in Sigma:
    diagonal blocks (E/m) I - D D^t/(1-u^2), off-diagonal blocks
    H - u D D^t/(1-u^2).  The sign of the u term is fixed by the exact
    degree-1 field (f linear in ambient coordinates), where the conditional
    covariance can be written down directly; it is what makes the matrix
    positive semidefinite and the determinant identity hold.
    """
    u = blocks.u
    if 1.0 - abs(u) < 1e-12:
        raise ValueError("reduced covariance requires |u| < 1")
    m = blocks.model.m
    d = _d_vector(blocks)
    h = _h_matrix(blocks)
    rho = np.outer(d, d) / (1.0 - u * u)
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, :m] = blocks.scale * np.eye(m) - rho
    omega[m:, m:] = blocks.scale * np.eye(m) - rho
    omega[:m, m:] = h - u * rho
    omega[m:, :m] = h.T - u * rho
    return omega


def gaussian_joint(blocks: CovarianceBlocks) -> GaussianJoint:
    """Assemble Omega and eigendecompose it, once; the determinant and the
    degeneracy flag come from that spectrum."""
    omega = omega_matrix(blocks)
    omega_eigs, omega_vecs = np.linalg.eigh(omega)
    scale = blocks.scale
    if omega_eigs[0] < -PSD_SLACK_RTOL * scale:
        raise DegenerateCovarianceError(
            f"reduced covariance has negative eigenvalue {omega_eigs[0]:g}",
            eigenvalue=float(omega_eigs[0]),
            theta=blocks.theta,
        )
    degenerate = bool(omega_eigs[0] < DEGENERACY_RTOL * scale)
    return GaussianJoint(
        omega=omega,
        omega_eigs=omega_eigs,
        omega_vecs=omega_vecs,
        a_det=1.0 - blocks.u**2,
        omega_det=float(np.prod(omega_eigs)),
        degenerate=degenerate,
    )


def s_matrix(blocks: CovarianceBlocks) -> tuple[np.ndarray, float]:
    """Deviation from independence, S = I - (m/E) Omega, and its spectral
    norm (largest absolute eigenvalue)."""
    omega = omega_matrix(blocks)
    s = np.eye(omega.shape[0]) - omega / blocks.scale
    eigs = np.linalg.eigvalsh(s)
    return s, float(max(abs(eigs[0]), abs(eigs[-1])))


def finite_difference_blocks(model: SphereModel, theta: float, h: float = 1e-4):
    """Ground-truth (u, d_long, h_long, h_trans) from central differences of
    the two-point function Q(cos d(x, y)) along the aligned-frame directions.

    Pins both the closed forms and the sign conventions; errors are O(h^2)
    times fourth derivatives of Q, so keep the degree moderate.
    """
    from . import geometry  # deferred: geometry does not depend on us

    m = model.m
    pole = geometry.north_pole(m)
    x = math.sin(theta) * np.eye(m + 1)[0] + math.cos(theta) * pole
    frame_x, frame_y = geometry.aligned_frames(x, pole)

    def u_of(a, b):
        from .specfun import gegenbauer_q

        return gegenbauer_q(model, float(np.clip(np.dot(a, b), -1.0, 1.0)))

    e1x, e1y = frame_x.vectors[0], frame_y.vectors[0]
    v2x, v2y = frame_x.vectors[1], frame_y.vectors[1]
    step_x = lambda v, s: geometry.sphere_exp(x, v, s)
    step_y = lambda v, s: geometry.sphere_exp(pole, v, s)

    u0 = u_of(x, pole)
    d_long = (u_of(step_x(e1x, h), pole) - u_of(step_x(e1x, -h), pole)) / (2 * h)
    h_long = (
        u_of(step_x(e1x, h), step_y(e1y, h))
        - u_of(step_x(e1x, h), step_y(e1y, -h))
        - u_of(step_x(e1x, -h), step_y(e1y, h))
        + u_of(step_x(e1x, -h), step_y(e1y, -h))
    ) / (4 * h * h)
    h_trans = (
        u_of(step_x(v2x, h), step_y(v2y, h))
        - u_of(step_x(v2x, h), step_y(v2y, -h))
        - u_of(step_x(v2x, -h), step_y(v2y, h))
        + u_of(step_x(v2x, -h), step_y(v2y, -h))
    ) / (4 * h * h)
    return u0, d_long, h_long, h_trans
