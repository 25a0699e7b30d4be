"""Sphere geometry: the volume of the unit m-sphere, and the icosphere used
for nodal extraction on S^2, built as its antipodal half: 10 * 4^level
triangles, one of each antipodal pair.  Points are unit vectors held as
plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IcoMesh",
    "sphere_volume",
    "icosphere",
]


@dataclass(frozen=True)
class IcoMesh:
    """Antipodal half of a subdivided icosahedron on the unit sphere (m = 2
    only): 10 * 4^level triangles, one of each antipodal pair."""

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

# Base faces 10-19 are the antipodes of faces 0-9: 0-13, 1-12, 2-11, 3-10,
# 4-14, 5-17, 6-18, 7-19, 8-15, 9-16.  Subdivision numbers the children of
# face f as 4f+c, so at every level the first half of the whole mesh's
# triangles holds exactly one triangle of each antipodal pair, and that half
# is what ``icosphere`` builds.  Faces 0-9 use every base vertex but 3.


def _unit_rows(p: np.ndarray) -> np.ndarray:
    """Rows scaled to unit length; the row norm is sqrt of a matmul dot,
    which rounds exactly as ``np.linalg.norm`` of each row alone."""
    return p / np.sqrt(p[:, None, :] @ p[:, :, None])[:, 0]


def _base_twins(faces: np.ndarray) -> np.ndarray:
    """Twin slot of every slot of a closed mesh whose faces all turn the
    same way, so that a neighbour lists each shared edge reversed.  Slot
    3f+e is edge e of face f (ab, bc, ca).  Used once, on the base faces."""
    tail = faces.reshape(-1)
    head = np.roll(faces, -1, axis=1).reshape(-1)
    slot = {(int(t), int(h)): s for s, (t, h) in enumerate(zip(tail, head))}
    return np.array([slot[int(h), int(t)] for t, h in zip(tail, head)], dtype=np.int64)


def _child_twins(twins: np.ndarray) -> np.ndarray:
    """Twin slots after one subdivision, in closed form from the parent's.

    Face f's children are 4f+e for e = 0, 1, 2 (at corner e) and 4f+3 (the
    inner face).  Child e holds the first half of edge e at slot 0, an inner
    edge at slot 1 and the second half of edge e-1 at slot 2; child 3 holds
    the three inner edges.  The neighbour g runs the shared edge the other
    way, so the first half of f's edge is the second half of g's.
    """
    f = np.arange(twins.size // 3)[:, None]
    g, eg = np.divmod(twins.reshape(-1, 3), 3)
    e = np.arange(3)
    out = np.empty((f.size, 4, 3), dtype=np.int64)
    out[:, e, 0] = 12 * g + 3 * ((eg + 1) % 3) + 2
    out[:, (e + 1) % 3, 2] = 12 * g + 3 * eg
    out[:, e, 1] = 12 * f + 9 + (e + 2) % 3
    out[:, 3, (e + 2) % 3] = 12 * f + 3 * e + 1
    return out.reshape(-1)


def _first_slots(faces: np.ndarray, twins: np.ndarray):
    """Slots where an edge first appears in slot order (slot < twin), with
    each one's tail and head vertex."""
    new = np.flatnonzero(np.arange(twins.size) < twins)
    flat = faces.reshape(-1)
    return new, flat[new], flat[new + np.where(new % 3 == 2, -2, 1)]


def _midpoint_numbers(twins: np.ndarray, new: np.ndarray, nverts: int) -> np.ndarray:
    """Vertex number of each slot's midpoint: ``nverts`` plus the count of
    first appearances before its edge's own, shape (T, 3)."""
    mids = np.empty(twins.size, dtype=np.int64)
    mids[new] = np.arange(nverts, nverts + new.size)
    later = np.flatnonzero(np.arange(twins.size) > twins)
    mids[later] = mids[twins[later]]
    return mids.reshape(-1, 3)


def _split_faces(faces: np.ndarray, mids: np.ndarray) -> np.ndarray:
    """Face (a, b, c) with midpoints (ab, bc, ca) split into (a, ab, ca),
    (b, bc, ab), (c, ca, bc) and (ab, bc, ca), in that order."""
    out = np.empty((faces.shape[0], 4, 3), dtype=np.int64)
    out[:, :3, 0] = faces          # a, b, c
    out[:, :3, 1] = mids           # ab, bc, ca
    out[:, 0, 2] = mids[:, 2]      # ca, then ab, bc
    out[:, 1:3, 2] = mids[:, :2]
    out[:, 3] = mids
    return out.reshape(-1, 3)


def _min_edge_dot(vertices: np.ndarray, edges) -> float:
    """Smallest end-point dot product over ``edges``, pairs of vertex index
    arrays or slices.  Each dot is summed x, y, z in index order, as
    np.sum(a * b, axis=1) sums a row, from contiguous coordinate columns."""
    x, y, z = np.ascontiguousarray(vertices.T)
    min_dot = math.inf
    for i, j in edges:
        dots = x[i] * x[j]
        dots += y[i] * y[j]
        dots += z[i] * z[j]
        min_dot = min(min_dot, float(dots.min()))
    return min_dot


def icosphere(subdivisions: int) -> IcoMesh:
    """Antipodal half of the icosahedron subdivided ``subdivisions`` = s
    times, vertices on the unit sphere: its first 10 * 4^s triangles, one of
    each antipodal pair, over the 5 * 4^s + 5 * 2^s + 1 vertices they use,
    numbered in the whole mesh's order, bit for bit.  Levels above 9 are
    refused as a memory guard.

    The half grows from base faces 0-9.  Edges are tracked by twin slots:
    slot 3f+e is edge e (ab, bc, ca) of face f, and its twin is the slot of
    the same edge in the neighbouring face of the whole mesh.  The base
    twins are found once on the whole icosahedron and each subdivision
    gives its children's in closed form, so no level sorts its edges.  A
    boundary edge's twin lies past the half and stays there.  A slot is its
    edge's first appearance exactly when slot < twin, as every boundary slot
    is, and the midpoints are numbered in that order.  ``edge_length_max``
    measures each edge of the final mesh once: the three inner edges of
    every face of the last level's parent, and both halves of each parent
    edge at its first appearance.  Every edge of the other half is the
    antipode of one of these, so this is the whole mesh's longest edge.
    Each level's bookkeeping is freed before the next level's arrays are
    built.
    """
    if subdivisions < 0:
        raise ValueError("subdivisions must be >= 0")
    if subdivisions > 9:
        raise ValueError("subdivision level above 9 exceeds the memory guard")

    vertices = _unit_rows(np.delete(_ICO_VERTS, 3, axis=0))
    faces = _ICO_FACES[:10] - (_ICO_FACES[:10] > 3)
    twins = _base_twins(_ICO_FACES)[:30]
    if subdivisions == 0:
        _, tail, head = _first_slots(faces, twins)
        min_dot = _min_edge_dot(vertices, ((tail, head),))
    for level in range(subdivisions):
        nv = vertices.shape[0]
        new, tail, head = _first_slots(faces, twins)
        mids = _midpoint_numbers(twins, new, nv)
        del new
        last = level == subdivisions - 1
        twins = None if last else _child_twins(twins)
        vertices = np.vstack([vertices, _unit_rows(vertices[tail] + vertices[head])])
        if last:
            ab, bc, ca = mids.T
            middle = slice(nv, None)  # the new vertices, in first-appearance order
            min_dot = _min_edge_dot(vertices, ((ab, bc), (bc, ca), (ca, ab),
                                               (tail, middle), (middle, head)))
        del tail, head
        faces = _split_faces(faces, mids)
        del mids

    # the longest edge has the smallest end-point dot product
    edge_max = float(np.arccos(np.clip(min_dot, -1.0, 1.0)))
    return IcoMesh(vertices=vertices, triangles=faces, edge_length_max=edge_max)
