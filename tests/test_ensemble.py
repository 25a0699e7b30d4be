import math

import numpy as np
import pytest

from sphnodal import ensemble as en
from sphnodal import geometry as ge
from sphnodal import specfun as sf

from conftest import unit_points


def fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    phi = math.pi * (1 + 5**0.5) * i
    z = 1 - 2 * i / count
    r = np.sqrt(1 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def test_basis_size_and_constant():
    basis = en.HarmonicBasis(0)
    assert basis.size == 1
    val = en.eval_basis(basis, np.array([0.0, 0.0, 1.0]))
    assert val[0] == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-14)


def test_addition_theorem_self_sum():
    rng = np.random.default_rng(12)
    for n in (1, 4, 19, 40):
        basis = en.HarmonicBasis(n)
        pts = unit_points(rng, 100)
        vals = en.eval_basis_many(basis, pts)
        total = 4 * math.pi / basis.size * np.sum(vals * vals, axis=1)
        assert np.max(np.abs(total - 1.0)) < 1e-10


def test_addition_theorem_cross_sum():
    rng = np.random.default_rng(13)
    for n in (2, 11, 40):
        basis = en.HarmonicBasis(n)
        model = sf.SphereModel(2, n)
        x = unit_points(rng, 100)
        y = unit_points(rng, 100)
        vals_x = en.eval_basis_many(basis, x)
        vals_y = en.eval_basis_many(basis, y)
        lhs = 4 * math.pi / basis.size * np.sum(vals_x * vals_y, axis=1)
        rhs = sf.gegenbauer_q(model, np.clip(np.sum(x * y, axis=1), -1, 1))
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_gram_matrix_orthonormal():
    pts = fibonacci_sphere(10**5)
    for n in (3, 12):
        basis = en.HarmonicBasis(n)
        vals = en.eval_basis_many(basis, pts)
        gram = (vals.T @ vals) * (4 * math.pi / pts.shape[0])
        assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-3


def test_sampling_is_deterministic():
    basis = en.HarmonicBasis(6)
    s1 = en.sample_function(basis, 42)
    s2 = en.sample_function(basis, 42)
    assert np.array_equal(s1.a, s2.a)
    assert s1.scale == pytest.approx(math.sqrt(4 * math.pi / 13), rel=1e-15)
    s3 = en.sample_function(basis, 43)
    assert not np.array_equal(s1.a, s3.a)


def test_pointwise_unit_variance():
    n = 8
    basis = en.HarmonicBasis(n)
    x0 = np.array([0.3, -0.5, 0.81])
    x0 /= np.linalg.norm(x0)
    b = en.eval_basis(basis, x0)
    scale = math.sqrt(4 * math.pi / basis.size)
    draws = en.rng_for(123).standard_normal((10**4, basis.size))
    vals = scale * (draws @ b)
    mean_sq = float(np.mean(vals**2))
    se = float(np.std(vals**2) / math.sqrt(vals.size))
    assert abs(mean_sq - 1.0) <= 4 * se


def test_two_point_covariance():
    n = 6
    basis = en.HarmonicBasis(n)
    model = sf.SphereModel(2, n)
    rng = np.random.default_rng(7)
    x, y = unit_points(rng, 2)
    bx = en.eval_basis(basis, x)
    by = en.eval_basis(basis, y)
    scale_sq = 4 * math.pi / basis.size
    draws = en.rng_for(55).standard_normal((10**4, basis.size))
    prods = scale_sq * (draws @ bx) * (draws @ by)
    target = sf.gegenbauer_q(model, float(np.clip(np.dot(x, y), -1, 1)))
    se = float(np.std(prods) / math.sqrt(prods.size))
    assert abs(float(np.mean(prods)) - target) <= 4 * se


def test_gradient_matches_finite_differences():
    basis = en.HarmonicBasis(12)
    sample = en.sample_function(basis, 7)
    rng = np.random.default_rng(9)
    ref = ge.reference_frame(2)
    checked = 0
    for x in unit_points(rng, 150):
        if ge.geodesic_distance(x, -ge.north_pole(2)) < 0.05:
            continue
        frame = ge.transport_frame(x, ref)
        grad = en.eval_gradient(sample, x, frame)
        for i in range(2):
            h = 1e-5
            fd = (en.eval(sample, ge.sphere_exp(x, frame.vectors[i], h))
                  - en.eval(sample, ge.sphere_exp(x, frame.vectors[i], -h))) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-8)
        checked += 1
        if checked == 100:
            break
    assert checked == 100


def test_gradient_norm_frame_invariant():
    basis = en.HarmonicBasis(9)
    sample = en.sample_function(basis, 3)
    x = np.array([0.6, 0.64, 0.48])
    x /= np.linalg.norm(x)
    ambient = en.eval_gradient_ambient(sample, x)
    transported = en.eval_gradient(sample, x)
    assert np.linalg.norm(ambient) == pytest.approx(np.linalg.norm(transported), abs=1e-10)


def test_gradient_at_north_pole():
    basis = en.HarmonicBasis(11)
    sample = en.sample_function(basis, 17)
    grad = en.eval_gradient_ambient(sample, ge.north_pole(2))
    h = 1e-6
    fd_x = (en.eval(sample, np.array([math.sin(h), 0, math.cos(h)]))
            - en.eval(sample, np.array([-math.sin(h), 0, math.cos(h)]))) / (2 * h)
    fd_y = (en.eval(sample, np.array([0, math.sin(h), math.cos(h)]))
            - en.eval(sample, np.array([0, -math.sin(h), math.cos(h)]))) / (2 * h)
    assert grad[0] == pytest.approx(fd_x, rel=1e-4)
    assert grad[1] == pytest.approx(fd_y, rel=1e-4)
    assert grad[2] == 0.0


def test_gradient_at_south_pole():
    h = 1e-5
    for n in (4, 7):  # even and odd degree
        sample = en.sample_function(en.HarmonicBasis(n), 1)
        grad = en.eval_gradient_ambient(sample, -ge.north_pole(2))
        for axis in range(2):
            step = np.zeros(3)
            step[axis] = math.sin(h)
            step[2] = -math.cos(h)
            back = step * np.array([-1.0, -1.0, 1.0])
            fd = (en.eval(sample, step) - en.eval(sample, back)) / (2 * h)
            assert grad[axis] == pytest.approx(fd, rel=1e-7, abs=1e-7)
        assert grad[2] == 0.0


def _points_past_one_block(extra=5):
    rng = np.random.default_rng(4)
    return unit_points(rng, en._BLOCK + extra)


def test_basis_rows_across_block_boundary_match_single_point():
    basis = en.HarmonicBasis(9)
    pts = _points_past_one_block()
    vals = en.eval_basis_many(basis, pts)
    for i in (0, en._BLOCK - 1, en._BLOCK, en._BLOCK + 1, len(pts) - 1):
        assert np.array_equal(vals[i], en.eval_basis(basis, pts[i]))


def test_gradient_pole_handling_in_second_block():
    sample = en.sample_function(en.HarmonicBasis(6), 2)
    pts = _points_past_one_block()
    pts[en._BLOCK + 2] = ge.north_pole(2)
    pts[en._BLOCK + 3] = -ge.north_pole(2)
    grads = en.eval_gradient_ambient_many(sample, pts)
    for i in (en._BLOCK + 2, en._BLOCK + 3):
        assert np.array_equal(grads[i], en.eval_gradient_ambient(sample, pts[i]))
    # an ordinary point agrees to rounding: BLAS may sum a one-point product
    # in another order
    single = en.eval_gradient_ambient(sample, pts[en._BLOCK + 1])
    assert np.max(np.abs(grads[en._BLOCK + 1] - single)) <= 1e-14 * math.sqrt(6 * 7)
    assert grads[en._BLOCK + 2, 2] == 0.0
    assert grads[en._BLOCK + 3, 2] == 0.0


def _theta_phi_gradient(sample, points):
    """Independent oracle away from the poles, in spherical coordinates: per
    order, d/dtheta and (1/sin) d/dphi of the real harmonics, through the
    derivative relation sin dP_{n,k} = n cos P_{n,k} - c_{n,k} P_{n-1,k}."""
    n, a = sample.basis.n, sample.a
    cos_t, phi = points[:, 2], np.arctan2(points[:, 1], points[:, 0])
    sin_t = np.sqrt(1.0 - cos_t**2)
    df_dth = np.zeros(len(points))
    df_dphi = np.zeros(len(points))
    s = math.sqrt((2 * n + 1) / (2 * n - 1.0))
    lower = dict(en._legendre_orders(n - 1, cos_t, sin_t))
    for k, pn in en._legendre_orders(n, cos_t, sin_t):
        dpk = n * cos_t * pn
        if k < n:
            dpk = dpk - s * math.sqrt(n * n - k * k) * lower[k]
        w = 1.0 if k == 0 else math.sqrt(2.0)
        c, sn = np.cos(k * phi), np.sin(k * phi)
        df_dth += w * dpk / sin_t * (a[n + k] * c + (a[n - k] * sn if k else 0.0))
        df_dphi += w * k * pn / sin_t * (a[n - k] * c - a[n + k] * sn)
    e_theta = np.stack([cos_t * np.cos(phi), cos_t * np.sin(phi), -sin_t], axis=1)
    e_phi = np.stack([-np.sin(phi), np.cos(phi), np.zeros(len(points))], axis=1)
    return sample.scale * (df_dth[:, None] * e_theta + df_dphi[:, None] * e_phi)


@pytest.mark.parametrize("n", [1, 2, 7, 20, 40])
def test_ladder_gradient_matches_theta_phi_oracle(n):
    sample = en.sample_function(en.HarmonicBasis(n), 30 + n)
    pts = _points_past_one_block(extra=2000)
    pts = pts[np.abs(pts[:, 2]) < 0.999]
    assert len(pts) > en._BLOCK
    err = np.max(np.abs(en.eval_gradient_ambient_many(sample, pts)
                        - _theta_phi_gradient(sample, pts)))
    assert err <= 1e-12 * math.sqrt(n * (n + 1))


@pytest.mark.parametrize("n", [1, 5, 20])
def test_ladder_satisfies_euler_identity(n):
    # the ambient gradient of r^n f(x/r), dotted with x, is n f(x)
    sample = en.sample_function(en.HarmonicBasis(n), 8)
    pts = unit_points(np.random.default_rng(6), 500)
    coef = sample.scale * np.tensordot(sample.a, en._ladder(n), axes=(0, 0))
    ambient = en.eval_basis_many(en.HarmonicBasis(n - 1), pts) @ coef
    radial = np.sum(ambient * pts, axis=1)
    assert np.max(np.abs(radial - n * en.eval_many(sample, pts))) <= 1e-12


def test_degree_one_gradient_is_exact():
    # f(x) = c.x, so its gradient on the sphere is c - (c.x) x
    sample = en.sample_function(en.HarmonicBasis(1), 12)
    c = np.array([en.eval(sample, e) for e in np.eye(3)])
    pts = unit_points(np.random.default_rng(2), 200)
    pts[:2] = [ge.north_pole(2), -ge.north_pole(2)]
    want = c - (pts @ c)[:, None] * pts
    assert np.max(np.abs(en.eval_gradient_ambient_many(sample, pts) - want)) <= 1e-14


def test_expected_gradient_norm_squared():
    n = 8
    model = sf.SphereModel(2, n)
    basis = en.HarmonicBasis(n)
    x0 = np.array([0.3, -0.5, 0.81])
    x0 /= np.linalg.norm(x0)
    norms_sq = []
    for s in range(4000):
        sample = en.sample_function(basis, 1000 + s)
        norms_sq.append(float(np.sum(en.eval_gradient_ambient(sample, x0) ** 2)))
    norms_sq = np.array(norms_sq)
    se = float(norms_sq.std() / math.sqrt(norms_sq.size))
    assert abs(norms_sq.mean() - model.E) <= 4 * se


def test_laplacian_eigenfunction_property():
    n = 7
    model = sf.SphereModel(2, n)
    basis = en.HarmonicBasis(n)
    sample = en.sample_function(basis, 4)
    sup = float(np.max(np.abs(en.eval_many(sample, fibonacci_sphere(2000)))))
    rng = np.random.default_rng(10)
    ref = ge.reference_frame(2)
    h = 1e-3
    for x in unit_points(rng, 40):
        if abs(x[2]) > 0.98:
            continue
        frame = ge.transport_frame(x, ref)
        f0 = en.eval(sample, x)
        lap = 0.0
        for i in range(2):
            lap += (en.eval(sample, ge.sphere_exp(x, frame.vectors[i], h))
                    - 2 * f0
                    + en.eval(sample, ge.sphere_exp(x, frame.vectors[i], -h))) / h**2
        assert abs(lap + model.E * f0) <= 1e-3 * model.E * sup


def test_rotation_invariance_of_pointwise_distribution():
    stats = pytest.importorskip("scipy.stats")
    basis = en.HarmonicBasis(9)
    x0 = np.array([0.2, -0.4, 0.89])
    x0 /= np.linalg.norm(x0)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    b1 = en.eval_basis(basis, x0)
    b2 = en.eval_basis(basis, q @ x0)
    scale = math.sqrt(4 * math.pi / basis.size)
    draws = en.rng_for(31).standard_normal((10**4, basis.size))
    ks = stats.ks_2samp(scale * (draws @ b1), scale * (draws @ b2)).statistic
    assert ks <= 0.02


def test_gaussian_field_single_point():
    model = sf.SphereModel(3, 7)
    point = np.array([[0.0, 0.0, 0.0, 1.0]])
    draws = np.array([float(en.sample_gaussian_field(model, point, s)[0])
                      for s in range(10**4)])
    assert abs(draws.var() - 1.0) <= 4 * math.sqrt(2.0 / draws.size)


def test_gaussian_field_antipodal_parity():
    for n in (6, 7):
        model = sf.SphereModel(3, n)
        pts = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]])
        draws = np.array([en.sample_gaussian_field(model, pts, s) for s in range(4000)])
        corr = float(np.corrcoef(draws.T)[0, 1])
        assert corr == pytest.approx((-1.0) ** n, abs=0.01)


def test_gaussian_field_matches_basis_sampler():
    n = 5
    model = sf.SphereModel(2, n)
    basis = en.HarmonicBasis(n)
    rng = np.random.default_rng(14)
    pts = unit_points(rng, 6)
    vals_basis = en.eval_basis_many(basis, pts)
    scale = math.sqrt(4 * math.pi / basis.size)
    draws_a = en.rng_for(71).standard_normal((10**4, basis.size))
    emp_basis = np.cov((scale * draws_a @ vals_basis.T).T)
    draws_b = np.array([en.sample_gaussian_field(model, pts, 5000 + s) for s in range(10**4)])
    emp_field = np.cov(draws_b.T)
    se = math.sqrt(2.0 / 10**4) * 2.0
    assert np.max(np.abs(emp_basis - emp_field)) <= 4 * se


def test_sample_csv_export():
    basis = en.HarmonicBasis(3)
    sample = en.sample_function(basis, 2)
    mesh = ge.icosphere(1)
    text = en.sample_to_csv(sample, mesh)
    lines = text.strip().split("\n")
    assert lines[0] == "vertex,f"
    assert len(lines) == mesh.vertices.shape[0] + 1
    idx, val = lines[1].split(",")
    assert idx == "0"
    assert float(val) == pytest.approx(en.eval(sample, mesh.vertices[0]), abs=1e-14)


def test_gaussian_field_point_cap():
    model = sf.SphereModel(2, 3)
    pts = np.zeros((4001, 3))
    pts[:, 2] = 1.0
    with pytest.raises(ValueError):
        en.sample_gaussian_field(model, pts, 0)
