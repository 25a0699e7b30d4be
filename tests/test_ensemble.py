import math

import numpy as np
import pytest

from sphnodal import ensemble as en
from sphnodal import specfun as sf

from conftest import north_pole, sample_function, sphere_exp, unit_points


def value_at(sample, x):
    return float(en.eval_many(sample, np.asarray(x, float)[None])[0])


def basis_at(basis, x):
    return en.eval_basis_many(basis, np.asarray(x, float)[None])[0]


def gradient_at(sample, x):
    return en.eval_gradient_ambient_many(sample, np.asarray(x, float)[None])[0]


def tangent_frame(x):
    """Orthonormal tangent vectors at x as rows, the first from the
    coordinate axis least aligned with x."""
    axis = np.eye(3)[np.argmin(np.abs(x))]
    e1 = axis - np.dot(axis, x) * x
    e1 /= np.linalg.norm(e1)
    return np.stack([e1, np.cross(x, e1)])


def fibonacci_sphere(count: int) -> np.ndarray:
    i = np.arange(count) + 0.5
    phi = math.pi * (1 + 5**0.5) * i
    z = 1 - 2 * i / count
    r = np.sqrt(1 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def test_basis_size_and_constant():
    basis = en.HarmonicBasis(0)
    assert basis.size == 1
    val = basis_at(basis, np.array([0.0, 0.0, 1.0]))
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
    s1 = sample_function(basis, 42)
    s2 = sample_function(basis, 42)
    assert np.array_equal(s1.a, s2.a)
    assert s1.scale == pytest.approx(math.sqrt(4 * math.pi / 13), rel=1e-15)
    s3 = sample_function(basis, 43)
    assert not np.array_equal(s1.a, s3.a)


def test_pointwise_unit_variance():
    n = 8
    basis = en.HarmonicBasis(n)
    x0 = np.array([0.3, -0.5, 0.81])
    x0 /= np.linalg.norm(x0)
    b = basis_at(basis, x0)
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
    bx = basis_at(basis, x)
    by = basis_at(basis, y)
    scale_sq = 4 * math.pi / basis.size
    draws = en.rng_for(55).standard_normal((10**4, basis.size))
    prods = scale_sq * (draws @ bx) * (draws @ by)
    target = sf.gegenbauer_q(model, float(np.clip(np.dot(x, y), -1, 1)))
    se = float(np.std(prods) / math.sqrt(prods.size))
    assert abs(float(np.mean(prods)) - target) <= 4 * se


def test_gradient_matches_finite_differences():
    basis = en.HarmonicBasis(12)
    sample = sample_function(basis, 7)
    rng = np.random.default_rng(9)
    for x in unit_points(rng, 100):
        frame = tangent_frame(x)
        grad = frame @ gradient_at(sample, x)
        for i in range(2):
            h = 1e-5
            fd = (value_at(sample, sphere_exp(x, frame[i], h))
                  - value_at(sample, sphere_exp(x, frame[i], -h))) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-8)


def test_gradient_norm_frame_invariant():
    # the ambient gradient is tangent, so a tangent frame keeps its norm
    basis = en.HarmonicBasis(9)
    sample = sample_function(basis, 3)
    x = np.array([0.6, 0.64, 0.48])
    x /= np.linalg.norm(x)
    ambient = gradient_at(sample, x)
    in_frame = tangent_frame(x) @ ambient
    assert np.linalg.norm(ambient) == pytest.approx(np.linalg.norm(in_frame), abs=1e-10)


def test_gradient_at_north_pole():
    basis = en.HarmonicBasis(11)
    sample = sample_function(basis, 17)
    grad = gradient_at(sample, north_pole(2))
    h = 1e-6
    fd_x = (value_at(sample, np.array([math.sin(h), 0, math.cos(h)]))
            - value_at(sample, np.array([-math.sin(h), 0, math.cos(h)]))) / (2 * h)
    fd_y = (value_at(sample, np.array([0, math.sin(h), math.cos(h)]))
            - value_at(sample, np.array([0, -math.sin(h), math.cos(h)]))) / (2 * h)
    assert grad[0] == pytest.approx(fd_x, rel=1e-4)
    assert grad[1] == pytest.approx(fd_y, rel=1e-4)
    assert grad[2] == 0.0


def test_gradient_at_south_pole():
    h = 1e-5
    for n in (4, 7):  # even and odd degree
        sample = sample_function(en.HarmonicBasis(n), 1)
        grad = gradient_at(sample, -north_pole(2))
        for axis in range(2):
            step = np.zeros(3)
            step[axis] = math.sin(h)
            step[2] = -math.cos(h)
            back = step * np.array([-1.0, -1.0, 1.0])
            fd = (value_at(sample, step) - value_at(sample, back)) / (2 * h)
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
        assert np.array_equal(vals[i], basis_at(basis, pts[i]))


def test_basis_on_aligned_slices_equals_full_matrix_rows(mesh_level6):
    # the streamed Monte Carlo path evaluates the basis on _BLOCK-aligned
    # vertex slices; they must give exactly the full matrix's rows
    basis = en.HarmonicBasis(40)
    verts = mesh_level6.vertices
    full = en.eval_basis_many(basis, verts)
    for start in range(0, verts.shape[0], en._BLOCK):
        block = en.eval_basis_many(basis, verts[start:start + en._BLOCK])
        assert np.array_equal(block, full[start:start + en._BLOCK])


def test_gradient_pole_handling_in_second_block():
    sample = sample_function(en.HarmonicBasis(6), 2)
    pts = _points_past_one_block()
    pts[en._BLOCK + 2] = north_pole(2)
    pts[en._BLOCK + 3] = -north_pole(2)
    grads = en.eval_gradient_ambient_many(sample, pts)
    for i in (en._BLOCK + 2, en._BLOCK + 3):
        assert np.array_equal(grads[i], gradient_at(sample, pts[i]))
    # an ordinary point agrees to rounding: BLAS may sum a one-point product
    # in another order
    single = gradient_at(sample, pts[en._BLOCK + 1])
    assert np.max(np.abs(grads[en._BLOCK + 1] - single)) <= 1e-14 * math.sqrt(6 * 7)
    assert grads[en._BLOCK + 2, 2] == 0.0
    assert grads[en._BLOCK + 3, 2] == 0.0


def _legendre_orders(n, cos_t, sin_t):
    """Yield (k, P-bar_{n,k}) of cos theta for k = 0..n: per order, the
    sectoral seed and then the degree climb to n.  Fully normalized, with
    the 1/sqrt(4 pi) folded into P-bar_00 and no Condon-Shortley phase."""
    p_kk = np.full(cos_t.shape[0], 1.0 / math.sqrt(4.0 * math.pi))
    for k in range(0, n + 1):
        if k > 0:
            p_kk = p_kk * sin_t * math.sqrt((2 * k + 1) / (2.0 * k))
        if k == n:
            yield k, p_kk
            return
        p_prev = p_kk
        p_curr = math.sqrt(2 * k + 3.0) * cos_t * p_kk
        for deg in range(k + 2, n + 1):
            a = math.sqrt((4.0 * deg * deg - 1.0) / (deg * deg - k * k))
            b = math.sqrt(((deg - 1.0) ** 2 - k * k) / (4.0 * (deg - 1.0) ** 2 - 1.0))
            p_prev, p_curr = p_curr, a * (cos_t * p_curr - b * p_prev)
        yield k, p_curr


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
    lower = dict(_legendre_orders(n - 1, cos_t, sin_t))
    for k, pn in _legendre_orders(n, cos_t, sin_t):
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
    sample = sample_function(en.HarmonicBasis(n), 30 + n)
    pts = _points_past_one_block(extra=2000)
    pts = pts[np.abs(pts[:, 2]) < 0.999]
    assert len(pts) > en._BLOCK
    err = np.max(np.abs(en.eval_gradient_ambient_many(sample, pts)
                        - _theta_phi_gradient(sample, pts)))
    assert err <= 1e-12 * math.sqrt(n * (n + 1))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
def test_basis_matches_degree_climb_oracle(n):
    # away from the poles, the order recurrence in (x, y, z) against the
    # climb in degree from theta and phi
    pts = unit_points(np.random.default_rng(40 + n), 3000)
    pts = pts[np.abs(pts[:, 2]) < 0.999]
    cos_t, phi = pts[:, 2], np.arctan2(pts[:, 1], pts[:, 0])
    sin_t = np.sqrt(1.0 - cos_t**2)
    want = np.empty((2 * n + 1, len(pts)))
    for k, pn in _legendre_orders(n, cos_t, sin_t):
        if k == 0:
            want[n] = pn
        else:
            want[n + k] = math.sqrt(2.0) * pn * np.cos(k * phi)
            want[n - k] = math.sqrt(2.0) * pn * np.sin(k * phi)
    err = np.max(np.abs(en._basis_block(n, pts) - want))
    assert err <= 1e-13 * math.sqrt((2 * n + 1) / (4 * math.pi))


def _solid_harmonic_reference(n, point):
    """The degree-n basis, order-major, at one float point in 40-digit
    arithmetic: per order k the degree climb of F_k = P-bar_{n,k}/sin^k
    from its sectoral constant, in (z, r^2) so that it is the solid
    harmonic at the point's own x, y, z, times sqrt(2) (Re, Im)(x + iy)^k."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        x, y, z = (mpmath.mpf(float(c)) for c in point)
        r2 = x * x + y * y + z * z
        vals = [mpmath.mpf(0)] * (2 * n + 1)
        f_kk = 1 / mpmath.sqrt(4 * mpmath.pi)
        power = mpmath.mpc(1)
        for k in range(n + 1):
            if k:
                f_kk *= mpmath.sqrt(mpmath.mpf(2 * k + 1) / (2 * k))
                power *= mpmath.mpc(x, y)
            prev, cur = mpmath.mpf(0), f_kk
            for deg in range(k + 1, n + 1):
                a = mpmath.sqrt(mpmath.mpf(4 * deg * deg - 1) / (deg * deg - k * k))
                b = mpmath.sqrt(mpmath.mpf((deg - 1) ** 2 - k * k) / (4 * (deg - 1) ** 2 - 1))
                prev, cur = cur, a * (z * cur - b * r2 * prev)
            if k == 0:
                vals[n] = cur
            else:
                vals[n + k] = mpmath.sqrt(2) * cur * power.real
                vals[n - k] = mpmath.sqrt(2) * cur * power.imag
        return np.array([float(v) for v in vals])


@pytest.mark.parametrize("n, tol", [(0, 1e-14), (1, 1e-14), (2, 1e-14), (19, 1e-14),
                                    (40, 1e-14), (160, 1e-13)])
def test_basis_matches_40_digit_reference(n, tol):
    # the poles and their neighbourhoods included, where an angle-based
    # evaluation loses sin theta and phi to rounding
    thetas = [0.0, 1e-9, 1e-6, 1e-3, 0.05, 1.0, math.pi / 2, math.pi - 1e-5]
    phis = np.random.default_rng(160 + n).uniform(0.0, 2 * math.pi, len(thetas))
    pts = np.array([[math.sin(t) * math.cos(p), math.sin(t) * math.sin(p), math.cos(t)]
                    for t, p in zip(thetas, phis)])
    got = en._basis_block(n, pts)
    for i, point in enumerate(pts):
        err = np.max(np.abs(got[:, i] - _solid_harmonic_reference(n, point)))
        assert err <= tol * math.sqrt((2 * n + 1) / (4 * math.pi)), (thetas[i], err)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 40, 160, en.MAX_DEGREE])
def test_basis_at_the_poles(n):
    # only the zonal harmonic survives, at (+-1)^n sqrt((2n+1)/4pi)
    vals = en._basis_block(n, np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    zonal = math.sqrt((2 * n + 1) / (4 * math.pi))
    assert vals[n] == pytest.approx([zonal, (-1) ** n * zonal], rel=1e-14)
    assert np.all(np.delete(vals, n, axis=0) == 0.0)


def test_basis_degree_limit():
    # F_k(+-1) overflows past MAX_DEGREE (test_basis_at_the_poles checks the
    # values at it): refused, not returned as inf or nan
    pole = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match=str(en.MAX_DEGREE)):
        en._basis_block(en.MAX_DEGREE + 1, pole)
    with pytest.raises(ValueError, match=str(en.MAX_DEGREE)):
        en.eval_basis_many(en.HarmonicBasis(en.MAX_DEGREE + 1), pole)


@pytest.mark.parametrize("n", [1, 5, 20])
def test_ladder_satisfies_euler_identity(n):
    # the ambient gradient of r^n f(x/r), dotted with x, is n f(x)
    sample = sample_function(en.HarmonicBasis(n), 8)
    pts = unit_points(np.random.default_rng(6), 500)
    coef = sample.scale * np.tensordot(sample.a, en._ladder(n), axes=(0, 0))
    ambient = en.eval_basis_many(en.HarmonicBasis(n - 1), pts) @ coef
    radial = np.sum(ambient * pts, axis=1)
    assert np.max(np.abs(radial - n * en.eval_many(sample, pts))) <= 1e-12


def test_degree_one_gradient_is_exact():
    # f(x) = c.x, so its gradient on the sphere is c - (c.x) x
    sample = sample_function(en.HarmonicBasis(1), 12)
    c = np.array([value_at(sample, e) for e in np.eye(3)])
    pts = unit_points(np.random.default_rng(2), 200)
    pts[:2] = [north_pole(2), -north_pole(2)]
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
        sample = sample_function(basis, 1000 + s)
        norms_sq.append(float(np.sum(gradient_at(sample, x0) ** 2)))
    norms_sq = np.array(norms_sq)
    se = float(norms_sq.std() / math.sqrt(norms_sq.size))
    assert abs(norms_sq.mean() - model.E) <= 4 * se


def test_laplacian_eigenfunction_property():
    n = 7
    model = sf.SphereModel(2, n)
    basis = en.HarmonicBasis(n)
    sample = sample_function(basis, 4)
    sup = float(np.max(np.abs(en.eval_many(sample, fibonacci_sphere(2000)))))
    rng = np.random.default_rng(10)
    h = 1e-3
    for x in unit_points(rng, 40):
        if abs(x[2]) > 0.98:
            continue
        frame = tangent_frame(x)
        f0 = value_at(sample, x)
        lap = 0.0
        for i in range(2):
            lap += (value_at(sample, sphere_exp(x, frame[i], h))
                    - 2 * f0
                    + value_at(sample, sphere_exp(x, frame[i], -h))) / h**2
        assert abs(lap + model.E * f0) <= 1e-3 * model.E * sup


def test_rotation_invariance_of_pointwise_distribution():
    stats = pytest.importorskip("scipy.stats")
    basis = en.HarmonicBasis(9)
    x0 = np.array([0.2, -0.4, 0.89])
    x0 /= np.linalg.norm(x0)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    b1 = basis_at(basis, x0)
    b2 = basis_at(basis, q @ x0)
    scale = math.sqrt(4 * math.pi / basis.size)
    draws = en.rng_for(31).standard_normal((10**4, basis.size))
    ks = stats.ks_2samp(scale * (draws @ b1), scale * (draws @ b2)).statistic
    assert ks <= 0.02


GAUSSIAN_FIELD_MAX_POINTS = 4000


def sample_gaussian_field(model: sf.SphereModel, points: np.ndarray, seed: int) -> np.ndarray:
    """One joint draw of f at arbitrary points of S^m from the covariance
    Q_n(cos d(x_i, x_j)), by Cholesky after a 1e-10 diagonal jitter: the
    dense sampler that checks the basis sampler and covers m > 2."""
    points = np.asarray(points, float)
    k = points.shape[0]
    if k > GAUSSIAN_FIELD_MAX_POINTS:
        raise ValueError(f"point set too large for the dense sampler ({k} > {GAUSSIAN_FIELD_MAX_POINTS})")
    gram = np.clip(points @ points.T, -1.0, 1.0)
    cov = sf.gegenbauer_q(model, gram) if k > 1 else np.ones((1, 1))
    cov = np.asarray(cov, float).reshape(k, k)
    cov[np.diag_indices(k)] = 1.0
    try:
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(k))
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance factorization failed even with jitter") from exc
    z = en.rng_for(seed).standard_normal(k)
    return chol @ z


def test_gaussian_field_single_point():
    model = sf.SphereModel(3, 7)
    point = np.array([[0.0, 0.0, 0.0, 1.0]])
    draws = np.array([float(sample_gaussian_field(model, point, s)[0])
                      for s in range(10**4)])
    assert abs(draws.var() - 1.0) <= 4 * math.sqrt(2.0 / draws.size)


def test_gaussian_field_antipodal_parity():
    for n in (6, 7):
        model = sf.SphereModel(3, n)
        pts = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, -1.0]])
        draws = np.array([sample_gaussian_field(model, pts, s) for s in range(4000)])
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
    draws_b = np.array([sample_gaussian_field(model, pts, 5000 + s) for s in range(10**4)])
    emp_field = np.cov(draws_b.T)
    se = math.sqrt(2.0 / 10**4) * 2.0
    assert np.max(np.abs(emp_basis - emp_field)) <= 4 * se


def test_gaussian_field_point_cap():
    model = sf.SphereModel(2, 3)
    pts = np.zeros((4001, 3))
    pts[:, 2] = 1.0
    with pytest.raises(ValueError):
        sample_gaussian_field(model, pts, 0)
