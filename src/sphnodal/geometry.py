"""Sphere geometry: volumes, the pushforward measure, parallel transport,
geodesic-aligned frames, and the icosphere triangulation used for nodal
extraction on S^2.

Points are unit vectors in R^{m+1} held as plain numpy arrays.  The north
pole is the last coordinate axis; frames at other points come from parallel
transport along the unique geodesic from the north pole, which leaves a
single undefined point at the south pole (queries inside a 1e-9 cap around
it are rejected).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import mu_weight_constant

__all__ = [
    "TangentFrame",
    "IcoMesh",
    "sphere_volume",
    "mu_density",
    "north_pole",
    "reference_frame",
    "geodesic_distance",
    "sphere_exp",
    "transport_frame",
    "aligned_frames",
    "icosphere",
    "spherical_triangle_areas",
    "mesh_to_text",
]

SOUTH_POLE_CAP = 1e-9


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


@dataclass(frozen=True)
class IcoMesh:
    """Subdivided icosahedron projected to the unit sphere (m = 2 only)."""

    vertices: np.ndarray     # (V, 3) unit vectors
    triangles: np.ndarray    # (T, 3) int indices
    edge_length_max: float   # radians


def sphere_volume(m: int) -> float:
    """Volume of the unit m-sphere, 2 pi^{(m+1)/2} / Gamma((m+1)/2)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return math.exp(
        math.log(2.0) + ((m + 1) / 2.0) * math.log(math.pi) - math.lgamma((m + 1) / 2.0)
    )


def mu_density(m: int, t) -> float | np.ndarray:
    """Density of the pushforward of the uniform sphere measure under
    x -> cos d(x, N): (2 pi^{m/2}/Gamma(m/2)) (1-t^2)^{(m-2)/2}."""
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1.0):
        raise ValueError("t must lie in [-1, 1]")
    val = mu_weight_constant(m) * (1.0 - t * t) ** ((m - 2) / 2.0)
    return float(val) if val.ndim == 0 else val


def north_pole(m: int) -> np.ndarray:
    p = np.zeros(m + 1)
    p[-1] = 1.0
    return p


def reference_frame(m: int) -> TangentFrame:
    """Canonical frame at the north pole: the first m coordinate axes."""
    return TangentFrame(base=north_pole(m), vectors=np.eye(m + 1)[:m])


def geodesic_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Great-circle distance, arccos of the clamped inner product."""
    return float(np.arccos(np.clip(np.dot(x, y), -1.0, 1.0)))


def sphere_exp(x: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """Geodesic step of length s from x in the unit tangent direction v."""
    return math.cos(s) * x + math.sin(s) * v


def _transport_from_pole(x: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Parallel transport of tangent vectors at N to x along the geodesic.

    The transport rotates in the plane spanned by N and the outgoing unit
    tangent w, and fixes the orthogonal complement:
    v -> v + <v,w> ((cos d - 1) w - sin d N).
    """
    m = x.size - 1
    pole = north_pole(m)
    c = float(np.clip(np.dot(x, pole), -1.0, 1.0))
    d = math.acos(c)
    if d < 1e-15:
        return vectors.copy()
    w = (x - c * pole) / math.sin(d)
    comp = vectors @ w
    return vectors + np.outer(comp, (math.cos(d) - 1.0) * w - math.sin(d) * pole)


def transport_frame(x: np.ndarray, reference: TangentFrame) -> TangentFrame:
    """Frame at x by parallel transport of the north-pole frame.

    Undefined at the south pole; points within the exclusion cap raise.
    """
    m = x.size - 1
    pole = north_pole(m)
    if not np.allclose(reference.base, pole, atol=1e-12):
        raise ValueError("reference frame must sit at the north pole")
    if geodesic_distance(x, -pole) < SOUTH_POLE_CAP:
        raise ValueError("parallel transport is undefined at the south pole")
    return TangentFrame(base=np.asarray(x, dtype=float), vectors=_transport_from_pole(x, reference.vectors))


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


# ---------------------------------------------------------------------------
# Icosphere
# ---------------------------------------------------------------------------

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array(
    [
        [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
        [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
        [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
    ],
    dtype=float,
)

_ICO_FACES = np.array(
    [
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ],
    dtype=np.int64,
)


def _unit_rows(p: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; the row norm is sqrt of a matmul dot,
    which rounds exactly as ``np.linalg.norm`` of each row alone."""
    return p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]


def icosphere(subdivisions: int) -> IcoMesh:
    """Icosahedron subdivided ``subdivisions`` times, vertices on the unit
    sphere.  Triangle count is 20 * 4^subdivisions; levels above 9 are
    refused as a memory guard."""
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    if subdivisions > 9:
        raise ValueError("subdivision level above 9 exceeds the memory guard")

    vertices = _unit_rows(_ICO_VERTS)
    faces = _ICO_FACES.copy()

    for _ in range(subdivisions):
        # directed edges ab, bc, ca face by face; each new midpoint vertex is
        # numbered by its edge's first appearance in this list
        tail = faces.reshape(-1)
        head = np.roll(faces, -1, axis=1).reshape(-1)
        key = np.minimum(tail, head) * vertices.shape[0] + np.maximum(tail, head)
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        new = first[order]
        mids = vertices.shape[0] + rank[inverse].reshape(-1, 3)
        vertices = np.vstack([vertices, _unit_rows(vertices[tail[new]] + vertices[head[new]])])
        a, b, c = faces.T
        ab, bc, ca = mids.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)

    v0 = vertices[faces[:, 0]]
    v1 = vertices[faces[:, 1]]
    v2 = vertices[faces[:, 2]]
    dots = np.concatenate([
        np.sum(v0 * v1, axis=1), np.sum(v1 * v2, axis=1), np.sum(v2 * v0, axis=1),
    ])
    edge_max = float(np.max(np.arccos(np.clip(dots, -1.0, 1.0))))
    return IcoMesh(vertices=vertices, triangles=faces, edge_length_max=edge_max)


def spherical_triangle_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Solid angle of each spherical triangle (van Oosterom-Strackee)."""
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    num = np.abs(np.einsum("ij,ij->i", a, np.cross(b, c)))
    den = 1.0 + np.einsum("ij,ij->i", a, b) + np.einsum("ij,ij->i", b, c) + np.einsum("ij,ij->i", c, a)
    return 2.0 * np.arctan2(num, den)


def mesh_to_text(mesh: IcoMesh) -> str:
    """Plain-text dump: one 'v x y z' line per vertex, one 't i j k' line
    per triangle.  Debug format for external viewers."""
    lines = [f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in mesh.vertices]
    lines += [f"t {t[0]} {t[1]} {t[2]}" for t in mesh.triangles]
    return "\n".join(lines) + "\n"
