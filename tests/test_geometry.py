import math
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from sphnodal import geometry as ge

from conftest import unit_points


def test_sphere_volume():
    assert ge.sphere_volume(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert ge.sphere_volume(2) == pytest.approx(4 * math.pi, rel=1e-14)
    assert ge.sphere_volume(3) == pytest.approx(2 * math.pi**2, rel=1e-14)


def test_mu_density_values():
    assert ge.mu_density(2, 0.7) == pytest.approx(2 * math.pi, rel=1e-14)
    assert ge.mu_density(3, 0.0) == pytest.approx(4 * math.pi, rel=1e-14)


def test_mu_total_mass_is_sphere_volume():
    # integrate in the theta parameterization, where the weight is smooth
    x, w = leggauss(200)
    theta = math.pi / 2 * (x + 1.0)
    for m in range(2, 7):
        vals = ge.mu_density(m, np.cos(theta)) * np.sin(theta)
        mass = math.pi / 2 * float(np.dot(w, vals))
        assert mass == pytest.approx(ge.sphere_volume(m), rel=1e-10)


def test_geodesic_distance():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert ge.geodesic_distance(e1, e1) == 0.0
    assert ge.geodesic_distance(e1, -e1) == pytest.approx(math.pi, abs=1e-15)
    assert ge.geodesic_distance(e1, e2) == pytest.approx(math.pi / 2, abs=1e-15)


def test_transport_frame_at_pole_is_reference():
    ref = ge.reference_frame(2)
    fr = ge.transport_frame(ge.north_pole(2), ref)
    assert np.allclose(fr.vectors, ref.vectors)


def test_transport_frame_invariants():
    rng = np.random.default_rng(0)
    ref = ge.reference_frame(3)
    for x in unit_points(rng, 25, dim=4):
        if ge.geodesic_distance(x, -ge.north_pole(3)) < 1e-3:
            continue
        fr = ge.transport_frame(x, ref)
        gram = fr.vectors @ fr.vectors.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        assert np.max(np.abs(fr.vectors @ x)) < 1e-10


def test_transport_matches_rodrigues_on_equator():
    ref = ge.reference_frame(2)
    x = np.array([1.0, 0.0, 0.0])
    fr = ge.transport_frame(x, ref)
    axis = np.cross(ge.north_pole(2), x)
    axis /= np.linalg.norm(axis)

    def rodrigues(v, k, ang):
        return (v * math.cos(ang) + np.cross(k, v) * math.sin(ang)
                + k * np.dot(k, v) * (1 - math.cos(ang)))

    for i in range(2):
        expected = rodrigues(ref.vectors[i], axis, math.pi / 2)
        assert np.max(np.abs(fr.vectors[i] - expected)) < 1e-10


def test_transport_frame_south_pole_excluded():
    ref = ge.reference_frame(2)
    with pytest.raises(ValueError):
        ge.transport_frame(-ge.north_pole(2), ref)


def test_transport_frame_smoothness():
    rng = np.random.default_rng(3)
    ref = ge.reference_frame(2)
    h = 1e-4
    for x in unit_points(rng, 60):
        if ge.geodesic_distance(x, -ge.north_pole(2)) < 0.2:
            continue
        v = rng.standard_normal(3)
        v -= np.dot(v, x) * x
        v /= np.linalg.norm(v)
        fr1 = ge.transport_frame(x, ref)
        fr2 = ge.transport_frame(ge.sphere_exp(x, v, h), ref)
        assert np.max(np.linalg.norm(fr1.vectors - fr2.vectors, axis=1)) <= 10 * h


def test_aligned_frames_gradient_coordinates():
    rng = np.random.default_rng(1)
    for dim in (2, 3):
        for _ in range(10):
            x, y = unit_points(rng, 2, dim=dim + 1)
            d = ge.geodesic_distance(x, y)
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
        fd = (ge.geodesic_distance(ge.sphere_exp(x, fx.vectors[i], h), y)
              - ge.geodesic_distance(ge.sphere_exp(x, fx.vectors[i], -h), y)) / (2 * h)
        grad_x = (math.cos(ge.geodesic_distance(x, y)) * x - y) / math.sin(ge.geodesic_distance(x, y))
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
    areas = ge.spherical_triangle_areas(mesh.vertices, mesh.triangles)
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


def test_mesh_text_export():
    mesh = ge.icosphere(0)
    text = ge.mesh_to_text(mesh)
    lines = text.strip().split("\n")
    assert len(lines) == 12 + 20
    assert lines[0].startswith("v ")
    assert lines[12].startswith("t ")
    first = np.array([float(v) for v in lines[0].split()[1:]])
    assert np.allclose(first, mesh.vertices[0])


def test_pushforward_histogram_matches_mu():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(8)
    x = unit_points(rng, 10**6)
    # for m = 2 the pushforward of the normalized uniform measure is uniform on [-1, 1]
    ks = stats.kstest(x[:, 2], stats.uniform(loc=-1, scale=2).cdf).statistic
    assert ks <= 0.005
