"""Sphere geometry: volumes, geodesic steps, geodesic-aligned frames, and
the icosphere triangulation used for nodal extraction on S^2.

Points are unit vectors in R^{m+1} held as plain numpy arrays.  The north
pole is the last coordinate axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TangentFrame",
    "IcoMesh",
    "sphere_volume",
    "north_pole",
    "sphere_exp",
    "aligned_frames",
    "icosphere",
]


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


def north_pole(m: int) -> np.ndarray:
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


def _edge_midpoints(faces: np.ndarray, nverts: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertex numbers of each face's ab, bc and ca midpoints, shape (T, 3),
    and the two end points of each new midpoint's edge.

    Directed edges ab, bc, ca are listed face by face; each new midpoint is
    numbered from ``nverts`` by its edge's first appearance in this list.
    """
    tail = faces.reshape(-1)
    head = np.roll(faces, -1, axis=1).reshape(-1)
    key = np.minimum(tail, head) * nverts + np.maximum(tail, head)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    new = first[order]
    return nverts + rank[inverse].reshape(-1, 3), tail[new], head[new]


def _subdivide(vertices: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level: every face split into four at its edge midpoints.  The
    edge bookkeeping is freed before the new arrays are built, and the rest
    on return."""
    mids, ends0, ends1 = _edge_midpoints(faces, vertices.shape[0])
    vertices = np.vstack([vertices, _unit_rows(vertices[ends0] + vertices[ends1])])
    a, b, c = faces.T
    ab, bc, ca = mids.T
    return vertices, np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)


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
        vertices, faces = _subdivide(vertices, faces)

    # the longest edge has the smallest end-point dot product; each dot is
    # summed x, y, z in index order, as np.sum(a * b, axis=1) sums a row
    min_dot = math.inf
    for tail, head in ((0, 1), (1, 2), (2, 0)):
        i, j = faces[:, tail], faces[:, head]
        dots = vertices[i, 0] * vertices[j, 0]
        dots += vertices[i, 1] * vertices[j, 1]
        dots += vertices[i, 2] * vertices[j, 2]
        min_dot = min(min_dot, float(dots.min()))
    edge_max = float(np.arccos(np.clip(min_dot, -1.0, 1.0)))
    return IcoMesh(vertices=vertices, triangles=faces, edge_length_max=edge_max)
