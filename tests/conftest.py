import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from sphnodal import ensemble, geometry, moments, specfun

# Envelope constant for the Hilb approximation error bound, fitted once at
# (m=2, n=50) and frozen.  The split between the two error regimes sits at
# theta = HILB_SPLIT_COEFF / n.
HILB_ENVELOPE_CONST = 10.0
HILB_SPLIT_COEFF = 1.0


@pytest.fixture(scope="session")
def mesh_level5():
    return geometry.icosphere(5)


@pytest.fixture(scope="session")
def mesh_level6():
    return geometry.icosphere(6)


@pytest.fixture(scope="session")
def mesh_level7():
    return geometry.icosphere(7)


@pytest.fixture(scope="session")
def sphere_level5():
    return icosphere_by_sorted_edges(5)


@pytest.fixture(scope="session")
def sphere_level6():
    return icosphere_by_sorted_edges(6)


@pytest.fixture(scope="session")
def sphere_level7():
    return icosphere_by_sorted_edges(7)


@pytest.fixture(scope="session")
def volume_reports():
    """Volume second moments at m = 2, n = 10, 20, 40, from 20000 paths at
    seed 3, by degree: the reports of criteria 6 and 9 and of the moment
    tests."""
    models = [specfun.SphereModel(2, n) for n in (10, 20, 40)]
    return {rep.model.n: rep
            for rep in moments.volume_second_moments(models, mc_paths=20000, seed=3)}


@pytest.fixture(scope="session")
def basis20():
    return ensemble.HarmonicBasis(20)


@pytest.fixture(scope="session")
def basis20_on_sphere5(sphere_level5, basis20):
    return ensemble.eval_basis_many(basis20, sphere_level5.vertices)


@pytest.fixture(autouse=True)
def _quiet_mesh_warnings():
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="mesh edges.*")
        yield


def unit_points(rng: np.random.Generator, count: int, dim: int = 3) -> np.ndarray:
    x = rng.standard_normal((count, dim))
    return x / np.linalg.norm(x, axis=1)[:, None]


def sample_function(basis: ensemble.HarmonicBasis, seed) -> ensemble.HarmonicSample:
    """A random eigenfunction with i.i.d. N(0, 1) coefficients from the
    Philox stream of ``seed``, scaled to unit pointwise variance."""
    a = ensemble.rng_for(seed).standard_normal(basis.size)
    return ensemble.HarmonicSample(basis=basis, a=a, scale=math.sqrt(4 * math.pi / basis.size))


def triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Solid angle of each spherical triangle (van Oosterom-Strackee)."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(num, den)


def icosphere_by_sorted_edges(subdivisions: int) -> geometry.IcoMesh:
    """The whole icosphere, 20 * 4^subdivisions triangles, whose first half
    ``geometry.icosphere`` builds.  Whole levels at a time: the directed
    edges ab, bc, ca are listed face by face and each midpoint is numbered
    by its edge's first appearance, found with np.unique and argsort; the
    longest edge comes from the end-point dots of every triangle's three
    edges."""
    vertices = geometry._unit_rows(geometry._ICO_VERTS)
    faces = geometry._ICO_FACES.copy()
    for _ in range(subdivisions):
        nverts = vertices.shape[0]
        tail = faces.reshape(-1)
        head = np.roll(faces, -1, axis=1).reshape(-1)
        key = np.minimum(tail, head) * nverts + np.maximum(tail, head)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        new = first[order]
        ab, bc, ca = (nverts + rank[inverse].reshape(-1, 3)).T
        vertices = np.vstack([vertices,
                              geometry._unit_rows(vertices[tail[new]] + vertices[head[new]])])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    min_dot = math.inf
    for tail, head in ((0, 1), (1, 2), (2, 0)):
        i, j = faces[:, tail], faces[:, head]
        dots = vertices[i, 0] * vertices[j, 0]
        dots += vertices[i, 1] * vertices[j, 1]
        dots += vertices[i, 2] * vertices[j, 2]
        min_dot = min(min_dot, float(dots.min()))
    return geometry.IcoMesh(vertices=vertices, triangles=faces,
                            edge_length_max=float(np.arccos(np.clip(min_dot, -1.0, 1.0))))


def antipodal_half_by_unique(mesh: geometry.IcoMesh) -> geometry.IcoMesh:
    """The first half of an icosphere's triangles over the vertices they use,
    renumbered in their original order by ``np.unique``."""
    half = mesh.triangles[:mesh.triangles.shape[0] // 2]
    used, numbers = np.unique(half, return_inverse=True)
    return geometry.IcoMesh(vertices=mesh.vertices[used], triangles=numbers.reshape(-1, 3),
                            edge_length_max=mesh.edge_length_max)


@dataclass(frozen=True)
class TangentFrame:
    """Orthonormal basis of the tangent space at a point.

    ``vectors`` has shape (m, m+1); row i is the i-th frame vector in
    ambient coordinates.
    """

    base: np.ndarray
    vectors: np.ndarray

    def coords(self, ambient_vector: np.ndarray) -> np.ndarray:
        return self.vectors @ ambient_vector


def north_pole(m: int) -> np.ndarray:
    """The last coordinate axis of R^{m+1}."""
    p = np.zeros(m + 1)
    p[-1] = 1.0
    return p


def sphere_exp(x: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """Geodesic step of length s from x in the unit tangent direction v."""
    return math.cos(s) * x + math.sin(s) * v


def _complement_basis(x: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of span(x, e1)^perp in R^{m+1}."""
    dim = x.size
    basis = [x, e1]
    out = []
    for i in range(dim):
        v = np.zeros(dim)
        v[i] = 1.0
        for b in basis:
            v = v - np.dot(v, b) * b
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            v /= norm
            basis.append(v)
            out.append(v)
        if len(out) == dim - 2:
            break
    return np.array(out)


def aligned_frames(x: np.ndarray, y: np.ndarray) -> tuple[TangentFrame, TangentFrame]:
    """Frames at x and y adapted to the connecting geodesic.

    The first vector at x points toward y, the first vector at y continues
    the geodesic away from x (they are parallel transports of each other),
    and the remaining vectors are a shared orthonormal basis of the
    transversal subspace, which transport leaves pointwise fixed.  With this
    choice the coordinates of grad_x d(x,y) are (-1, 0, ...) and those of
    grad_y d(x,y) are (+1, 0, ...).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = float(np.clip(np.dot(x, y), -1.0, 1.0))
    if 1.0 - abs(c) < 1e-12:
        raise ValueError("aligned frames are undefined for coincident or antipodal points")
    d = math.acos(c)
    s = math.sin(d)
    e1x = (y - c * x) / s        # toward y
    e1y = (c * y - x) / s        # away from x
    trans = _complement_basis(x, e1x)
    frame_x = TangentFrame(base=x, vectors=np.vstack([e1x, trans]))
    frame_y = TangentFrame(base=y, vectors=np.vstack([e1y, trans]))
    return frame_x, frame_y


def finite_difference_pairs(m: int, theta: float, h: float) -> list:
    """The eleven point pairs of ``covariance.finite_difference_blocks``'s
    stencil, built with geodesic steps in the aligned frames of x at angle
    theta from the north pole y: (x, y); x stepped by +-h toward y; then
    (x, y) stepped along their first frame vectors and along the first
    transversal vector, each by (s_x, s_y) = (h, h), (h, -h), (-h, h),
    (-h, -h)."""
    pole = north_pole(m)
    x = math.sin(theta) * np.eye(m + 1)[0] + math.cos(theta) * pole
    frame_x, frame_y = aligned_frames(x, pole)
    e1x, e1y = frame_x.vectors[0], frame_y.vectors[0]
    v2x, v2y = frame_x.vectors[1], frame_y.vectors[1]
    pairs = [(x, pole), (sphere_exp(x, e1x, h), pole), (sphere_exp(x, e1x, -h), pole)]
    for vx, vy in ((e1x, e1y), (v2x, v2y)):
        pairs += [(sphere_exp(x, vx, sx), sphere_exp(pole, vy, sy))
                  for sx in (h, -h) for sy in (h, -h)]
    return pairs


def c_tilde(m: int) -> float:
    """Inverse of lim_{x->0} J_alpha(x)/x^alpha with alpha = (m-2)/2.

    Equals 2^alpha Gamma(alpha+1); this is the constant matching the
    Bessel main term to the normalization Q_n(1) = 1.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    alpha = (m - 2) / 2.0
    return math.exp(alpha * math.log(2.0) + math.lgamma(alpha + 1.0))


def hilb_approx(model, theta: float):
    """Uniform Bessel-type main term for Q_n(cos theta) on (0, pi/2].

    Returns (approx, error_envelope).  After normalization the main term
    collapses to

        C~ * sqrt(theta/sin theta) * J_alpha(Nh theta) / (Nh sin theta)^alpha

    with alpha = (m-2)/2 and Nh = n + (m-1)/2.  The envelope is the
    two-regime error shape (theta^{1/2} n^{-3/2} away from the pole,
    theta^{alpha+2} n^alpha inside theta < 1/n) scaled by the frozen
    constant.
    """
    # a plain import: without scipy the checks that use this fail, not skip
    from scipy.special import jv

    if not (0.0 < theta <= math.pi / 2.0):
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    m, n = model.m, model.n
    alpha = (m - 2) / 2.0
    nh = n + (m - 1) / 2.0
    s = math.sin(theta)
    approx = c_tilde(m) * math.sqrt(theta / s) * float(jv(alpha, nh * theta)) / (nh * s) ** alpha
    if theta > HILB_SPLIT_COEFF / n:
        envelope = HILB_ENVELOPE_CONST * math.sqrt(theta) * n ** (-1.5)
    else:
        envelope = HILB_ENVELOPE_CONST * theta ** (alpha + 2.0) * n**alpha
    return approx, envelope


def epsilon_rate(m: int, n: int) -> float:
    """Error rate of the nonsingular-interval expansion: log(n)/n^2 for
    m = 2 and n^{-m} otherwise."""
    if m < 2 or n < 2:
        raise ValueError("need m >= 2 and n >= 2")
    if m == 2:
        return math.log(n) / (n * n)
    return float(n) ** (-m)
