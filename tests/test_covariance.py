import math

import numpy as np
import pytest

from sphnodal import covariance as cv
from sphnodal import specfun as sf


def test_blocks_symbolic_degree_two():
    blocks = cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2)
    assert blocks.u == pytest.approx(-0.5, abs=1e-14)
    assert blocks.d_long == pytest.approx(0.0, abs=1e-14)
    assert blocks.h_long == pytest.approx(-3.0, abs=1e-13)
    assert blocks.h_trans == pytest.approx(0.0, abs=1e-14)
    assert blocks.scale == 3.0


def test_blocks_degree_one_closed_form():
    model = sf.SphereModel(2, 1)
    for theta in (0.3, 1.0, 2.2):
        blocks = cv.blocks_at(model, theta)
        assert blocks.u == pytest.approx(math.cos(theta), abs=1e-14)
        assert blocks.d_long == pytest.approx(math.sin(theta), abs=1e-14)
        assert blocks.h_long == pytest.approx(math.cos(theta), abs=1e-14)
        assert blocks.h_trans == pytest.approx(1.0, abs=1e-14)


def test_blocks_domain():
    model = sf.SphereModel(2, 3)
    with pytest.raises(ValueError):
        cv.blocks_at(model, 0.0)
    with pytest.raises(ValueError):
        cv.blocks_at(model, math.pi)


def test_blocks_match_finite_differences():
    # truncation is O(h^2 E^2), so errors are measured against the E/m scale
    for m, n, theta in [(2, 5, 0.7), (3, 8, 1.1), (4, 6, 2.0), (2, 25, 0.37)]:
        model = sf.SphereModel(m, n)
        blocks = cv.blocks_at(model, theta)
        fd = cv.finite_difference_blocks(model, theta)
        closed = (blocks.u, blocks.d_long, blocks.h_long, blocks.h_trans)
        for got, want in zip(fd, closed):
            assert abs(got - want) <= 1e-5 * max(1.0, blocks.scale)


def test_blocks_small_angle_regularity():
    model = sf.SphereModel(2, 12)
    blocks = cv.blocks_at(model, 1e-4)
    assert blocks.h_long == pytest.approx(blocks.scale, rel=1e-3)
    assert blocks.h_trans == pytest.approx(blocks.scale, rel=1e-3)
    assert blocks.u == pytest.approx(1.0, abs=1e-3)


def test_blocks_theta_reflection_parity():
    model = sf.SphereModel(2, 7)
    for theta in (0.4, 1.1):
        b = cv.blocks_at(model, theta)
        r = cv.blocks_at(model, math.pi - theta)
        sign = (-1.0) ** model.n
        assert r.u == pytest.approx(sign * b.u, abs=1e-12)
        # d_long = Q' sin theta picks up the derivative parity
        assert r.d_long == pytest.approx(-sign * b.d_long, abs=1e-12)
        assert r.h_trans == pytest.approx(-sign * b.h_trans, abs=1e-12)
        assert r.h_long == pytest.approx(sign * b.h_long, abs=1e-11)


@pytest.mark.parametrize("m", [2, 3])
def test_blocks_at_many_matches_blocks_at(m):
    model = sf.SphereModel(m, 11)
    thetas = np.linspace(0.03, math.pi - 0.03, 301)
    many = cv.blocks_at_many(model, thetas)
    assert len(many) == thetas.size
    for theta, blocks in zip(thetas, many):
        assert blocks == cv.blocks_at(model, float(theta))


def test_gaussian_joint_spectrum():
    for m, n in [(2, 7), (3, 10)]:
        model = sf.SphereModel(m, n)
        for theta in np.linspace(0.1, math.pi - 0.1, 25):
            joint = cv.gaussian_joint(cv.blocks_at(model, float(theta)))
            eigs, vecs = joint.omega_eigs, joint.omega_vecs
            assert np.all(np.diff(eigs) >= 0.0)
            rebuilt = vecs @ np.diag(eigs) @ vecs.T
            assert np.max(np.abs(rebuilt - joint.omega)) <= 1e-12 * model.E / m
            assert joint.omega_det == float(np.prod(eigs))


def test_sigma_layout():
    blocks = cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2)
    sigma = cv.sigma_matrix(blocks)
    assert sigma.shape == (6, 6)
    assert np.allclose(sigma[:2, :2], [[1, -0.5], [-0.5, 1]], atol=1e-14)
    assert np.max(np.abs(sigma - sigma.T)) < 1e-12


def test_sigma_degenerate_at_coincidence_limit():
    model = sf.SphereModel(2, 6)
    blocks = cv.CovarianceBlocks(model=model, theta=0.0, u=1.0, d_long=0.0,
                                 h_long=model.E / 2, h_trans=model.E / 2,
                                 scale=model.E / 2)
    sigma = cv.sigma_matrix(blocks)
    assert abs(np.prod(np.linalg.eigvalsh(sigma))) < 1e-8


def test_omega_example_eigenvalues():
    joint = cv.gaussian_joint(cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2))
    eigs = np.sort(np.linalg.eigvalsh(joint.omega))
    assert eigs == pytest.approx([0.0, 3.0, 3.0, 6.0], abs=1e-12)
    assert joint.degenerate
    assert joint.omega_det == pytest.approx(0.0, abs=1e-10)


def test_omega_independence_case():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=1.0, u=0.0, d_long=0.0,
                                 h_long=0.0, h_trans=0.0, scale=3.0)
    joint = cv.gaussian_joint(blocks)
    assert np.allclose(joint.omega, 3.0 * np.eye(4))
    assert joint.omega_det == pytest.approx(3.0**4, rel=1e-12)
    assert not joint.degenerate


def test_omega_requires_u_inside_unit_interval():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=0.0, u=1.0, d_long=0.0,
                                 h_long=0.0, h_trans=0.0, scale=3.0)
    with pytest.raises(ValueError):
        cv.omega_matrix(blocks)


def test_determinant_identity_and_psd_on_grid():
    for m in (2, 3):
        for n in (3, 10, 25):
            model = sf.SphereModel(m, n)
            for theta in np.linspace(0.05, math.pi - 0.05, 50):
                blocks = cv.blocks_at(model, float(theta))
                joint = cv.gaussian_joint(blocks)
                det_sigma = float(np.prod(np.linalg.eigvalsh(cv.sigma_matrix(blocks))))
                assert abs(det_sigma - joint.a_det * joint.omega_det) <= 1e-8 * max(
                    1.0, abs(det_sigma)
                )
                assert np.linalg.eigvalsh(joint.omega)[0] >= -1e-9 * model.E / m


def test_s_matrix_independence():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=1.0, u=0.0, d_long=0.0,
                                 h_long=0.0, h_trans=0.0, scale=3.0)
    s, norm = cv.s_matrix(blocks)
    assert np.max(np.abs(s)) == 0.0
    assert norm == 0.0


def test_s_matrix_degenerate_direction_has_unit_eigenvalue():
    _, norm = cv.s_matrix(cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2))
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_s_matrix_contraction_on_nonsingular_interval():
    model = sf.SphereModel(2, 40)
    c0 = sf.find_c0(model, 0.9)
    theta_c = math.acos(1 - c0 / model.n**2)
    for theta in np.linspace(theta_c, math.pi - theta_c, 120):
        _, norm = cv.s_matrix(cv.blocks_at(model, float(theta)))
        assert norm < 1 - 1e-9


def test_sigma_matches_ensemble_covariance():
    # empirical covariance of (f(x), f(N), grad f(x), grad f(N)) in the
    # aligned frames, 1e5 samples, every entry within 4 standard errors
    from sphnodal import ensemble as en
    from sphnodal import geometry as ge

    theta = 0.9
    pole = ge.north_pole(2)
    x = np.array([math.sin(theta), 0.0, math.cos(theta)])
    frame_x, frame_y = ge.aligned_frames(x, pole)
    for n in (5, 10):
        model = sf.SphereModel(2, n)
        basis = en.HarmonicBasis(n)
        scale = math.sqrt(4 * math.pi / basis.size)
        rows = np.zeros((6, basis.size))
        rows[0] = en.eval_basis(basis, x)
        rows[1] = en.eval_basis(basis, pole)
        for k in range(basis.size):
            coeff = np.zeros(basis.size)
            coeff[k] = 1.0
            unit = en.HarmonicSample(basis=basis, a=coeff, scale=1.0)
            rows[2:4, k] = frame_x.coords(en.eval_gradient_ambient(unit, x))
            rows[4:6, k] = frame_y.coords(en.eval_gradient_ambient(unit, pole))
        rows *= scale
        draws = en.rng_for(2024, n).standard_normal((10**5, basis.size))
        emp = np.cov((draws @ rows.T).T)
        theory = cv.sigma_matrix(cv.blocks_at(model, theta))
        se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / 10**5)
        assert np.max(np.abs(emp - theory) / np.maximum(se, 1e-12)) < 4.0
