import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sphnodal import geometry as ge
from sphnodal import moments as mo

from conftest import (aligned_frames, antipodal_half_by_unique, icosphere_by_sorted_edges,
                      sphere_exp, triangle_areas, unit_points)


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
            fx, fy = aligned_frames(x, y)
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
    fx, _ = aligned_frames(x, y)
    h = 1e-6
    for i in range(2):
        fd = (distance(sphere_exp(x, fx.vectors[i], h), y)
              - distance(sphere_exp(x, fx.vectors[i], -h), y)) / (2 * h)
        grad_x = (math.cos(distance(x, y)) * x - y) / math.sin(distance(x, y))
        assert fd == pytest.approx(float(np.dot(grad_x, fx.vectors[i])), rel=1e-6, abs=1e-9)


def test_aligned_frames_swap_flips_first_vectors():
    rng = np.random.default_rng(4)
    x, y = unit_points(rng, 2)
    fx, fy = aligned_frames(x, y)
    gy, gx = aligned_frames(y, x)
    assert np.allclose(fx.vectors[0], -gx.vectors[0], atol=1e-12)
    assert np.allclose(fy.vectors[0], -gy.vectors[0], atol=1e-12)


def test_aligned_frames_rejects_poles():
    x = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        aligned_frames(x, x)
    with pytest.raises(ValueError):
        aligned_frames(x, -x)


def test_icosphere_counts():
    m0 = ge.icosphere(0)
    assert m0.vertices.shape == (11, 3)
    assert m0.triangles.shape == (10, 3)
    assert ge.icosphere(3).triangles.shape[0] == 640


def test_icosphere_vertices_unit_and_manifold():
    mesh = ge.icosphere(3)
    assert np.max(np.abs(np.linalg.norm(mesh.vertices, axis=1) - 1)) < 1e-12
    counts = Counter()
    for a, b, c in icosphere_by_sorted_edges(3).triangles:
        assert len({a, b, c}) == 3
        for e in ((a, b), (b, c), (c, a)):
            counts[tuple(sorted(e))] += 1
    assert set(counts.values()) == {2}


def test_icosphere_area_sum():
    # one triangle of each antipodal pair covers half the sphere
    mesh = ge.icosphere(4)
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    assert float(areas.sum()) == pytest.approx(2 * math.pi, rel=5e-3)


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
    # the whole-mesh oracle against an independent one-face-at-a-time build
    mesh = icosphere_by_sorted_edges(level)
    verts, faces = _icosphere_by_midpoint_cache(level)
    assert np.array_equal(mesh.vertices, verts)
    assert np.array_equal(mesh.triangles, faces)


@pytest.mark.parametrize("level", range(10))
def test_icosphere_bit_identical_to_sorted_edges(level):
    # the half of the whole-mesh oracle, up to the memory guard's level 9
    mesh = ge.icosphere(level)
    want = antipodal_half_by_unique(icosphere_by_sorted_edges(level))
    assert np.array_equal(mesh.vertices, want.vertices)
    assert np.array_equal(mesh.triangles, want.triangles)
    assert mesh.edge_length_max == want.edge_length_max
    # 5,281 at level 5 and 328,961 at level 8: the H of
    # nodal.monte_carlo_experiment's memory rule
    assert mesh.vertices.shape[0] == 5 * 4**level + 5 * 2**level + 1


@pytest.mark.parametrize("level", range(1, 9))
def test_icosphere_levels_nest(level):
    # a level's vertices open the next level's, and every fourth child from
    # the first, second and third holds its parent's corners a, b and c
    coarse, fine = ge.icosphere(level - 1), ge.icosphere(level)
    assert np.array_equal(fine.vertices[:coarse.vertices.shape[0]], coarse.vertices)
    t = fine.triangles
    assert np.array_equal(np.stack([t[0::4, 0], t[1::4, 0], t[2::4, 0]], axis=1),
                          coarse.triangles)


def test_icosphere_twins_pair_every_edge():
    # each slot's twin holds the same edge reversed, and twins are mutual
    twins = ge._base_twins(ge._ICO_FACES)
    for _ in range(3):
        twins = ge._child_twins(twins)
    faces = icosphere_by_sorted_edges(3).triangles
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
    # on the whole mesh: the antipode of every vertex is a vertex,
    # coordinates negated exactly (a zero compares equal to its negative),
    # and the first half's triangles, mapped to their antipodes, are the
    # second half's as vertex sets
    mesh = icosphere_by_sorted_edges(level)
    anti = _antipodes(mesh.vertices)
    assert np.array_equal(mesh.vertices[anti], -mesh.vertices)
    half = mesh.triangles.shape[0] // 2
    image = np.sort(anti[mesh.triangles[:half]], axis=1)
    second = np.sort(mesh.triangles[half:], axis=1)
    assert np.array_equal(_sorted_rows(image), _sorted_rows(second))


@pytest.mark.parametrize("level", range(9))
def test_antipodal_half_keeps_each_vertex_first_triangle(level):
    # the first slot that holds a half vertex in the whole mesh is a slot
    # of the half, so the zero-vertex nudge picks the same neighbour on the
    # half as on the whole mesh
    whole = icosphere_by_sorted_edges(level)
    half = ge.icosphere(level)
    flat = whole.triangles.reshape(-1)
    used = np.unique(whole.triangles[:half.triangles.shape[0]])
    assert used.size == half.vertices.shape[0]
    _, first = np.unique(flat, return_index=True)
    assert np.all(first[used] < half.triangles.size)
    # every edge of the second half has an antipode of equal length in the
    # first, so the half's longest edge is the whole mesh's
    v = half.vertices[half.triangles]
    dots = np.concatenate([np.sum(v[:, i] * v[:, (i + 1) % 3], axis=1) for i in range(3)])
    assert whole.edge_length_max == float(np.max(np.arccos(np.clip(dots, -1.0, 1.0))))


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
    # an inner edge is in two triangles of the half, a boundary edge in one
    edges = np.unique(every, axis=0)
    assert measured.shape[0] == edges.shape[0]
    assert np.array_equal(np.unique(measured, axis=0), edges)


def test_icosphere_level8_traced_peak():
    # the sort-based subdivision of the whole mesh peaked at 75.0 MiB of
    # traced memory here, and the twin-slot build of the whole mesh at 60.0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ge.icosphere(8)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 40.0 * 2**20


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
