import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sphnodal import geometry as ge
from sphnodal import moments as mo

from conftest import antipodal_half_by_unique, triangle_areas, unit_points


def distance(x, y):
    return float(np.arccos(np.clip(np.dot(x, y), -1.0, 1.0)))


def test_sphere_volume():
    assert ge.sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert ge.sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert ge.sphere_volume(3) == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_mu_density_values():
    # dmu = density(t) dt with t = cos theta, so the density is the theta
    # weight over sin theta
    for m, t, want in ((2, 0.7, 2 * math.pi), (3, 0.0, 4 * math.pi)):
        theta = math.acos(t)
        assert mo._mu_theta_weight(m, theta) / math.sin(theta) == pytest.approx(want, rel=1e-14)


def test_mu_total_mass_is_sphere_volume():
    # integrate in the theta parameterization, where the weight is smooth
    x, w = leggauss(200)
    theta = math.pi / 2 * (x + 1.0)
    for m in range(2, 7):
        vals = mo._mu_theta_weight(m, theta)
        mass = math.pi / 2 * float(np.dot(w, vals))
        assert mass == pytest.approx(ge.sphere_volume(m), rel=1e-10)


def test_aligned_frames_gradient_coordinates():
    rng = np.random.default_rng(1)
    for dim in (2, 3):
        for _ in range(10):
            x, y = unit_points(rng, 2, dim=dim + 1)
            d = distance(x, y)
            if d < 0.05 or d > math.pi - 0.05:
                continue
            fx, fy = ge.aligned_frames(x, y)
            grad_x = (math.cos(d) * x - y) / math.sin(d)
            grad_y = (math.cos(d) * y - x) / math.sin(d)
            cx = fx.coords(grad_x)
            cy = fy.coords(grad_y)
            assert abs(abs(cx[0]) - 1.0) < 1e-10
            assert np.max(np.abs(cx[1:])) < 1e-10
            assert np.max(np.abs(cx + cy)) < 1e-10


def test_aligned_frames_match_finite_difference_gradient():
    rng = np.random.default_rng(2)
    x, y = unit_points(rng, 2)
    fx, _ = ge.aligned_frames(x, y)
    h = 1e-6
    for i in range(2):
        fd = (distance(ge.sphere_exp(x, fx.vectors[i], h), y)
              - distance(ge.sphere_exp(x, fx.vectors[i], -h), y)) / (2 * h)
        grad_x = (math.cos(distance(x, y)) * x - y) / math.sin(distance(x, y))
        assert fd == pytest.approx(float(np.dot(grad_x, fx.vectors[i])), rel=1e-6, abs=1e-9)


def test_aligned_frames_swap_flips_first_vectors():
    rng = np.random.default_rng(4)
    x, y = unit_points(rng, 2)
    fx, fy = ge.aligned_frames(x, y)
    gy, gx = ge.aligned_frames(y, x)
    assert np.allclose(fx.vectors[0], -gx.vectors[0], atol=1e-12)
    assert np.allclose(fy.vectors[0], -gy.vectors[0], atol=1e-12)


def test_aligned_frames_rejects_poles():
    x = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ge.aligned_frames(x, x)
    with pytest.raises(ValueError):
        ge.aligned_frames(x, -x)


def test_icosphere_counts():
    m0 = ge.icosphere(0)
    assert m0.vertices.shape == (12, 3)
    assert m0.triangles.shape == (20, 3)
    assert ge.icosphere(3).triangles.shape[0] == 1280


def test_icosphere_vertices_unit_and_manifold():
    mesh = ge.icosphere(3)
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1)) < 1e-12
    counts = Counter()
    for a, b, c in mesh.triangles:
        assert len({a, b, c}) == 3
        for e in ((a, b), (b, c), (c, a)):
            counts[tuple(sorted(e))] += 1
    assert set(counts.values()) == {2}


def test_icosphere_area_sum():
    mesh = ge.icosphere(4)
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    assert float(areas.sum()) == pytest.approx(4 * math.pi, rel=5e-3)


def _icosphere_by_midpoint_cache(subdivisions):
    """Reference subdivision: one face at a time, new vertices numbered as a
    per-edge midpoint cache first meets them, each normalized alone."""
    verts = [v / np.linalg.norm(v) for v in ge._ICO_VERTS]
    faces = [tuple(f) for f in ge._ICO_FACES]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                p = verts[i] + verts[j]
                verts.append(p / np.linalg.norm(p))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts), np.array(faces, dtype=np.int64)


@pytest.mark.parametrize("level", range(6))
def test_icosphere_bit_identical_to_midpoint_cache(level):
    mesh = ge.icosphere(level)
    verts, faces = _icosphere_by_midpoint_cache(level)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)


def _icosphere_by_sorted_edges(subdivisions):
    """Reference subdivision, whole levels at a time: the directed edges ab,
    bc, ca are listed face by face and each midpoint is numbered by its
    edge's first appearance, found with np.unique and argsort; the longest
    edge comes from the end-point dots of every triangle's three edges."""
    vertices = ge._unit_rows(ge._ICO_VERTS)
    faces = ge._ICO_FACES.copy()
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
        vertices = np.vstack([vertices, ge._unit_rows(vertices[tail[new]] + vertices[head[new]])])
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    min_dot = math.inf
    for tail, head in ((0, 1), (1, 2), (2, 0)):
        i, j = faces[:, tail], faces[:, head]
        dots = vertices[i, 0] * vertices[j, 0]
        dots += vertices[i, 1] * vertices[j, 1]
        dots += vertices[i, 2] * vertices[j, 2]
        min_dot = min(min_dot, float(dots.min()))
    return vertices, faces, float(np.arccos(np.clip(min_dot, -1.0, 1.0)))


@pytest.mark.parametrize("level", [6, 7, 8])
def test_icosphere_bit_identical_to_sorted_edges(level):
    # the midpoint-cache oracle stops at level 5; the mc-fine mesh is level 8
    mesh = ge.icosphere(level)
    verts, faces, edge_max = _icosphere_by_sorted_edges(level)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)
    assert mesh.edge_length_max == edge_max


def test_icosphere_twins_pair_every_edge():
    # each slot's twin holds the same edge reversed, and twins are mutual
    twins = ge._base_twins(ge._ICO_FACES)
    for _ in range(3):
        twins = ge._child_twins(twins)
    faces = ge.icosphere(3).triangles
    tail = faces.reshape(-1)
    head = np.roll(faces, -1, axis=1).reshape(-1)
    assert np.array_equal(twins[twins], np.arange(twins.size))
    assert np.array_equal(tail[twins], head)
    assert np.array_equal(head[twins], tail)


def _antipodes(vertices):
    """Index of each vertex's antipode: the rows and their negatives sorted
    alike pair off, since the rows are distinct."""
    anti = np.empty(vertices.shape[0], dtype=np.int64)
    anti[np.lexsort(vertices.T)] = np.lexsort((-vertices).T)
    return anti


def _sorted_rows(a):
    return a[np.lexsort(a.T[::-1])]


@pytest.mark.parametrize("level", range(9))
def test_second_half_of_triangles_is_the_antipodal_image_of_the_first(level):
    # the antipode of every vertex is a vertex, coordinates negated exactly
    # (a zero compares equal to its negative), and the first half's
    # triangles, mapped to their antipodes, are the second half's as vertex
    # sets
    mesh = ge.icosphere(level)
    anti = _antipodes(mesh.vertices)
    assert np.array_equal(mesh.vertices[anti], -mesh.vertices)
    half = mesh.triangles.shape[0] // 2
    image = np.sort(anti[mesh.triangles[:half]], axis=1)
    second = np.sort(mesh.triangles[half:], axis=1)
    assert np.array_equal(_sorted_rows(image), _sorted_rows(second))


@pytest.mark.parametrize("level", range(9))
def test_antipodal_half_keeps_each_vertex_first_triangle(level):
    mesh = ge.icosphere(level)
    half = ge._antipodal_half(mesh)
    want = antipodal_half_by_unique(mesh)
    assert np.array_equal(half.vertices, want.vertices)
    assert np.array_equal(half.triangles, want.triangles)
    # the vertex count that nodal.monte_carlo_experiment's memory rule states
    assert half.vertices.shape[0] == mesh.vertices.shape[0] // 2 + 5 * 2**level
    # the first slot that holds a half vertex in the whole mesh is a slot
    # of the half, so the zero-vertex nudge picks the same neighbour
    flat = mesh.triangles.reshape(-1)
    used = np.unique(mesh.triangles[:half.triangles.shape[0]])
    _, first = np.unique(flat, return_index=True)
    assert np.all(first[used] < half.triangles.size)
    # every edge of the second half has an antipode of equal length in the
    # first, so the half's longest edge is the whole mesh's
    v = half.vertices[half.triangles]
    dots = np.concatenate([np.sum(v[:, i] * v[:, (i + 1) % 3], axis=1) for i in range(3)])
    assert half.edge_length_max == float(np.max(np.arccos(np.clip(dots, -1.0, 1.0))))


@pytest.mark.parametrize("level", [0, 1, 3])
def test_edge_length_max_measures_each_edge_once(level, monkeypatch):
    seen = []
    scan = ge._min_edge_dot

    def recording(vertices, edges):
        edges = list(edges)
        idx = np.arange(vertices.shape[0])
        seen.extend(np.sort(np.stack([idx[i], idx[j]], axis=1), axis=1) for i, j in edges)
        return scan(vertices, edges)

    monkeypatch.setattr(ge, "_min_edge_dot", recording)
    faces = ge.icosphere(level).triangles
    measured = np.concatenate(seen)
    every = np.sort(np.stack([faces.reshape(-1), np.roll(faces, -1, axis=1).reshape(-1)],
                             axis=1), axis=1)
    assert measured.shape[0] == every.shape[0] // 2
    assert np.array_equal(np.unique(measured, axis=0), np.unique(every, axis=0))


def test_icosphere_level8_traced_peak():
    # the sort-based subdivision peaked at 75.0 MiB of traced memory here
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ge.icosphere(8)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 75.0 * 2**20


@pytest.mark.parametrize("level", range(8))
def test_edge_length_max_matches_rowwise_formula(level):
    # the component-form minimum dot, then one arccos, against the arccos of
    # every row-wise edge dot
    mesh = ge.icosphere(level)
    v = mesh.vertices[mesh.triangles]
    dots = np.concatenate([np.sum(v[:, i] * v[:, (i + 1) % 3], axis=1) for i in range(3)])
    assert mesh.edge_length_max == float(np.max(np.arccos(np.clip(dots, -1.0, 1.0))))


def test_icosphere_guard():
    with pytest.raises(ValueError):
        ge.icosphere(10)
    with pytest.raises(ValueError):
        ge.icosphere(-1)


def test_pushforward_histogram_matches_mu():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(8)
    x = unit_points(rng, 10**6)
    # for m = 2 the pushforward of the normalized uniform measure is uniform on [-1, 1]
    ks = stats.kstest(x[:, 2], stats.uniform(loc=-1, scale=2).cdf).statistic
    assert ks <= 0.005
