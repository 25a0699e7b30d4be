import math

import numpy as np
import pytest

from sphnodal import covariance as cv
from sphnodal import specfun as sf

from conftest import aligned_frames, finite_difference_pairs, north_pole


def omega_matrix(blocks: cv.CovarianceBlocks) -> np.ndarray:
    """Reduced 2m x 2m covariance of the gradients given f(x) = f(y) = 0,
    stacked over theta's shape: the assembled oracle of omega_spectrum.

    Schur complement of the A block in Sigma:
    diagonal blocks (E/m) I - D D^t/(1-u^2), off-diagonal blocks
    H - u D D^t/(1-u^2).  The sign of the u term is fixed by the exact
    degree-1 field (f linear in ambient coordinates), where the conditional
    covariance can be written down directly; it is what makes the matrix
    positive semidefinite and the determinant identity hold.
    """
    m = blocks.model.m
    rho = cv._rho(blocks)
    h = cv._h_diag(blocks)
    h[..., 0] -= blocks.u * rho
    j = np.arange(m)
    omega = np.zeros(h.shape[:-1] + (2 * m, 2 * m))
    omega[..., j, j] = omega[..., m + j, m + j] = blocks.scale
    omega[..., 0, 0] = omega[..., m, m] = blocks.scale - rho
    omega[..., j, m + j] = omega[..., m + j, j] = h
    return omega


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


def test_finite_difference_blocks_domain():
    model = sf.SphereModel(2, 3)
    for theta in (0.0, math.pi, [0.5, 0.0], np.array([1.0, math.pi])):
        with pytest.raises(ValueError):
            cv.finite_difference_blocks(model, theta)


@pytest.mark.parametrize("build", [cv.blocks_at, cv.finite_difference_blocks])
@pytest.mark.parametrize("theta", [math.nan, [1.0, math.nan], np.array([math.nan, 2.0])],
                         ids=["scalar", "list", "array"])
def test_nan_separation_is_refused(build, theta):
    # a NaN fails "0 < theta < pi" but passes "theta <= 0 or theta >= pi"
    with pytest.raises(ValueError, match="strictly inside"):
        build(sf.SphereModel(2, 5), theta)


# covariance-check's finite-difference grid
FD_GRID = np.linspace(0.4, math.pi - 0.4, 7)


def _difference_quotients(u, h):
    """(u, d_long, h_long, h_trans) from the two-point function at the
    eleven stencil pairs, in the order of ``finite_difference_pairs``."""
    return (u[0], (u[1] - u[2]) / (2 * h), (u[3] - u[4] - u[5] + u[6]) / (4 * h * h),
            (u[7] - u[8] - u[9] + u[10]) / (4 * h * h))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_finite_difference_arguments_match_geodesic_steps(m, monkeypatch):
    # the cosines the closed form hands to Q are the dot products of the
    # stencil's point pairs, built with explicit steps in aligned frames
    recorded = []

    def recording(model, t):
        recorded.append(np.array(t))
        return sf.gegenbauer_q(model, t)

    monkeypatch.setattr(cv, "gegenbauer_q", recording)
    model = sf.SphereModel(m, 5)
    for theta in (0.4, 1.2, 2.4, math.pi - 0.4):
        recorded.clear()
        cv.finite_difference_blocks(model, theta)
        dots = [np.dot(a, b) for a, b in finite_difference_pairs(m, theta, cv.FD_STEP)]
        assert len(recorded) == 1 and recorded[0].shape == (11,)
        assert np.max(np.abs(recorded[0] - dots)) <= 4e-16


@pytest.mark.parametrize("m, degrees", [(2, (2, 3, 5, 10, 20, 40, 80)), (3, (3, 10, 25))])
def test_finite_difference_blocks_match_frame_oracle(m, degrees):
    h = cv.FD_STEP
    for n in degrees:
        model = sf.SphereModel(m, n)
        got = np.stack(cv.finite_difference_blocks(model, FD_GRID), axis=-1)
        for theta, row in zip(FD_GRID, got):
            dots = [np.dot(a, b) for a, b in finite_difference_pairs(m, float(theta), h)]
            want = _difference_quotients(sf.gegenbauer_q(model, np.clip(dots, -1.0, 1.0)), h)
            assert np.max(np.abs(row - want)) <= 1e-8 * max(1.0, model.E / m)


@pytest.mark.parametrize("m", [2, 3])
def test_finite_difference_blocks_array_matches_scalar(m):
    model = sf.SphereModel(m, 12)
    thetas = np.linspace(0.03, math.pi - 0.03, 41)
    many = cv.finite_difference_blocks(model, thetas)
    for values in many:
        assert values.shape == thetas.shape
    for i, theta in enumerate(thetas):
        one = cv.finite_difference_blocks(model, float(theta))
        for got, want in zip(one, many):
            assert np.ndim(got) == 0
            assert got == want[i]


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
def test_scalar_and_array_records_agree(m):
    model = sf.SphereModel(m, 11)
    thetas = np.linspace(0.03, math.pi - 0.03, 301)
    many = cv.blocks_at(model, thetas)
    for name in ("theta", "u", "d_long", "h_long", "h_trans"):
        assert getattr(many, name).shape == thetas.shape
    sigmas, omegas = cv.sigma_matrix(many), omega_matrix(many)
    for i, theta in enumerate(thetas):
        one = cv.blocks_at(model, float(theta))
        for name in ("theta", "u", "d_long", "h_long", "h_trans"):
            assert getattr(one, name) == getattr(many, name)[i]
        assert one.scale == many.scale == model.E / m
        assert np.array_equal(cv.sigma_matrix(one), sigmas[i])
        assert np.array_equal(omega_matrix(one), omegas[i])


def test_omega_spectrum_matches_assembled_omega():
    for m in (2, 3, 4):
        for n in (3, 10, 40):
            model = sf.SphereModel(m, n)
            blocks = cv.blocks_at(model, np.linspace(0.1, math.pi - 0.1, 40))
            eigs = cv.omega_spectrum(blocks)
            assert eigs.shape == (40, m, 2)
            want = np.linalg.eigvalsh(omega_matrix(blocks))
            got = np.sort(eigs.reshape(40, 2 * m), axis=-1)
            assert np.max(np.abs(got - want)) <= 1e-12 * model.E / m


def test_omega_spectrum_rejects_negative_eigenvalue():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=np.array([0.5, 1.0, 1.5]),
                                 u=np.zeros(3), d_long=np.zeros(3), h_long=np.zeros(3),
                                 h_trans=np.array([0.0, 3.5, 4.0]), scale=3.0)
    with pytest.raises(cv.DegenerateCovarianceError) as err:
        cv.omega_spectrum(blocks)
    assert err.value.eigenvalue == pytest.approx(-1.0, abs=1e-15)
    assert err.value.theta == 1.0  # the first offending angle


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
    blocks = cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2)
    eigs = cv.omega_spectrum(blocks)
    assert np.sort(eigs.ravel()) == pytest.approx([0.0, 3.0, 3.0, 6.0], abs=1e-12)
    assert np.linalg.eigvalsh(omega_matrix(blocks)) == pytest.approx([0.0, 3.0, 3.0, 6.0],
                                                                         abs=1e-12)
    assert cv.degenerate(eigs, blocks.scale)
    assert np.prod(eigs) == pytest.approx(0.0, abs=1e-10)


def test_omega_independence_case():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=1.0, u=0.0, d_long=0.0,
                                 h_long=0.0, h_trans=0.0, scale=3.0)
    assert np.array_equal(omega_matrix(blocks), 3.0 * np.eye(4))
    eigs = cv.omega_spectrum(blocks)
    assert np.array_equal(eigs, np.full((2, 2), 3.0))
    assert np.prod(eigs) == pytest.approx(3.0**4, rel=1e-12)
    assert not cv.degenerate(eigs, blocks.scale)


def test_omega_requires_u_inside_unit_interval():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=0.0, u=1.0, d_long=0.0,
                                 h_long=0.0, h_trans=0.0, scale=3.0)
    with pytest.raises(ValueError):
        omega_matrix(blocks)
    with pytest.raises(ValueError):
        cv.omega_spectrum(blocks)


def test_determinant_identity_and_psd_on_grid():
    for m in (2, 3):
        for n in (3, 10, 25):
            model = sf.SphereModel(m, n)
            blocks = cv.blocks_at(model, np.linspace(0.05, math.pi - 0.05, 50))
            det_sigma = np.prod(np.linalg.eigvalsh(cv.sigma_matrix(blocks)), axis=-1)
            det_omega = np.prod(cv.omega_spectrum(blocks), axis=(-2, -1))
            assert np.all(np.abs(det_sigma - (1.0 - blocks.u**2) * det_omega)
                          <= 1e-8 * np.maximum(1.0, np.abs(det_sigma)))
            assert np.all(np.linalg.eigvalsh(omega_matrix(blocks))[:, 0] >= -1e-9 * model.E / m)


def test_s_matrix_independence():
    model = sf.SphereModel(2, 2)
    blocks = cv.CovarianceBlocks(model=model, theta=1.0, u=0.0, d_long=0.0,
                                 h_long=0.0, h_trans=0.0, scale=3.0)
    assert np.max(np.abs(np.eye(4) - omega_matrix(blocks) / blocks.scale)) == 0.0
    assert cv.sigma_norm(cv.omega_spectrum(blocks), blocks.scale) == 0.0


def test_s_matrix_degenerate_direction_has_unit_eigenvalue():
    blocks = cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2)
    norm = cv.sigma_norm(cv.omega_spectrum(blocks), blocks.scale)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_s_matrix_contraction_on_nonsingular_interval():
    model = sf.SphereModel(2, 40)
    c0 = sf.find_c0(model, 0.9)
    theta_c = math.acos(1 - c0 / model.n**2)
    blocks = cv.blocks_at(model, np.linspace(theta_c, math.pi - theta_c, 120))
    norm = cv.sigma_norm(cv.omega_spectrum(blocks), blocks.scale)
    assert np.all(norm < 1 - 1e-9)
    # the closed form is the spectral norm of the assembled S = I - Omega/scale
    s = np.eye(4) - omega_matrix(blocks) / blocks.scale
    assert norm == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(s)), axis=-1), abs=1e-14)


def test_sigma_matches_ensemble_covariance():
    # empirical covariance of (f(x), f(N), grad f(x), grad f(N)) in the
    # aligned frames, 1e5 samples, every entry within 4 standard errors
    from sphnodal import ensemble as en

    theta = 0.9
    pole = north_pole(2)
    x = np.array([math.sin(theta), 0.0, math.cos(theta)])
    frame_x, frame_y = aligned_frames(x, pole)
    for n in (5, 10):
        model = sf.SphereModel(2, n)
        basis = en.HarmonicBasis(n)
        scale = math.sqrt(4 * math.pi / basis.size)
        rows = np.zeros((6, basis.size))
        rows[0:2] = en.eval_basis_many(basis, np.stack([x, pole]))
        for k in range(basis.size):
            coeff = np.zeros(basis.size)
            coeff[k] = 1.0
            unit = en.HarmonicSample(basis=basis, a=coeff, scale=1.0)
            grad_x, grad_pole = en.eval_gradient_ambient_many(unit, np.stack([x, pole]))
            rows[2:4, k] = frame_x.coords(grad_x)
            rows[4:6, k] = frame_y.coords(grad_pole)
        rows *= scale
        draws = en.rng_for(2024, n).standard_normal((10**5, basis.size))
        emp = np.cov((draws @ rows.T).T)
        theory = cv.sigma_matrix(cv.blocks_at(model, theta))
        se = np.sqrt((np.outer(np.diag(theory), np.diag(theory)) + theory**2) / 10**5)
        assert np.max(np.abs(emp - theory) / np.maximum(se, 1e-12)) < 4.0
