import math

import numpy as np
import pytest

from sphnodal import covariance as cv
from sphnodal import moments as mo
from sphnodal import specfun as sf
from sphnodal.geometry import sphere_volume


def independence_blocks(model, u=0.0):
    return cv.CovarianceBlocks(model=model, theta=1.0, u=u, d_long=0.0,
                               h_long=0.0, h_trans=0.0, scale=model.E / model.m)


def test_leray_expectation_values():
    assert mo.leray_expectation(2) == pytest.approx(math.sqrt(8 * math.pi), rel=1e-14)
    assert mo.leray_expectation(3) == pytest.approx(2 * math.pi**2 / math.sqrt(2 * math.pi), rel=1e-14)
    for m in range(2, 7):
        assert mo.leray_expectation(m) == pytest.approx(
            sphere_volume(m) / math.sqrt(2 * math.pi), rel=1e-14
        )


def test_volume_expectation_values():
    assert mo.volume_expectation(sf.SphereModel(2, 20)) == pytest.approx(
        math.sqrt(2) * math.pi * math.sqrt(420), rel=1e-13
    )
    assert mo.volume_expectation(sf.SphereModel(2, 1)) == pytest.approx(2 * math.pi, rel=1e-13)


def test_volume_constant_integral_form():
    # c_m from the Gaussian norm integral must match the closed form
    for m in range(2, 7):
        integral = math.sqrt(2) * (2 * math.pi) ** (m / 2) * math.gamma((m + 1) / 2) / math.gamma(m / 2)
        alt = sphere_volume(m) / (math.sqrt(m) * (2 * math.pi) ** ((m + 1) / 2)) * integral
        assert mo.volume_constant(m) == pytest.approx(alt, rel=1e-10)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        mo.QuadratureSpec(panels_per_oscillation=4)
    with pytest.raises(ValueError):
        mo.QuadratureSpec(relative_tolerance=1e-2)
    with pytest.raises(ValueError):
        mo.QuadratureSpec(singular_split_eps0=1.0)


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, r", [(2, 0.0), (2, 0.6), (2, 0.9), (3, 0.9)])
def test_kernel_independence_oracle(m, r):
    # w_1, w_2 ~ N(0, sigma I) with correlation r per coordinate:
    # E|w_1||w_2| = 2 sigma [Gamma((m+1)/2) / Gamma(m/2)]^2 2F1(-1/2, -1/2; m/2; r^2)
    special = pytest.importorskip("scipy.special")
    model = sf.SphereModel(m, 2)
    sigma = model.E / m
    blocks = cv.CovarianceBlocks(model=model, theta=1.0, u=0.0, d_long=0.0,
                                 h_long=r * sigma, h_trans=r * sigma, scale=sigma)
    value, se = mo.kernel_K(blocks, 200000, seed=11)
    ratio = math.exp(math.lgamma((m + 1) / 2) - math.lgamma(m / 2))
    want = 2 * sigma * ratio**2 * special.hyp2f1(-0.5, -0.5, m / 2, r * r) / (2 * math.pi)
    if r == 0.0:
        assert want == pytest.approx(model.E / 8.0, rel=1e-14)
    assert abs(value - want) <= 3 * se


def test_kernel_correlated_values_oracle():
    model = sf.SphereModel(2, 2)
    value, se = mo.kernel_K(independence_blocks(model, u=0.5), 200000, seed=11)
    assert abs(value - 0.75 / math.sqrt(0.75)) <= 3 * se


def test_kernel_rejects_degenerate():
    with pytest.raises(cv.DegenerateCovarianceError) as err:
        mo.kernel_K(cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2), 1000, 0)
    assert err.value.eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert err.value.theta == math.pi / 2


def test_kernel_array_record_keys_streams_by_node():
    model = sf.SphereModel(2, 9)
    thetas = np.linspace(0.4, 2.6, 6).reshape(2, 3)
    values, errs = mo.kernel_K(cv.blocks_at(model, thetas), 2000, seed=4)
    assert values.shape == errs.shape == thetas.shape
    # node 0 of any record draws from the stream keyed (seed, 0)
    assert mo.kernel_K(cv.blocks_at(model, float(thetas[0, 0])), 2000, seed=4) == (
        values[0, 0], errs[0, 0])


def _norm_kernel(blocks, mc_paths, seed):
    # the per-node loop as it stood with np.linalg.norm on the half-slices
    m = blocks.model.m
    roots = np.sqrt(cv.omega_spectrum(blocks))
    p = 0.5 * (roots[..., 1] + roots[..., 0]).reshape(-1, m)
    q = 0.5 * (roots[..., 1] - roots[..., 0]).reshape(-1, m)
    j = np.arange(m)
    root = np.zeros((2 * m, 2 * m))
    pairs = mc_paths // 2
    means, sds = np.empty(len(p)), np.empty(len(p))
    for i in range(len(p)):
        root[j, j] = root[m + j, m + j] = p[i]
        root[j, m + j] = root[m + j, j] = q[i]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(mo._node_seed(seed, i))))
        w = rng.standard_normal((pairs, 2 * m)) @ root
        prod = np.linalg.norm(w[:, :m], axis=1) * np.linalg.norm(w[:, m:], axis=1)
        means[i], sds[i] = np.mean(prod), np.std(prod, ddof=1)
    denom = 2.0 * math.pi * np.sqrt(1.0 - blocks.u**2)
    return means / denom, sds / math.sqrt(pairs) / denom


@pytest.mark.parametrize("m, n", [(2, 15), (3, 12), (4, 9)])
def test_kernel_matches_norm_loop(m, n):
    blocks = cv.blocks_at(sf.SphereModel(m, n), np.linspace(0.4, math.pi - 0.4, 25))
    values, errs = mo.kernel_K(blocks, 2000, seed=5)
    want_values, want_errs = _norm_kernel(blocks, 2000, seed=5)
    assert np.array_equal(values, want_values)
    assert np.array_equal(errs, want_errs)


def test_kernel_streams_continue_where_they_stopped():
    blocks = cv.blocks_at(sf.SphereModel(3, 12), np.linspace(0.4, 2.6, 7))
    streams = np.zeros((7, mo.PHILOX_WORDS), np.uint64)
    first = mo.kernel_K(blocks, 1000, seed=2, streams=streams)
    assert np.array_equal(first[0], mo.kernel_K(blocks, 1000, seed=2)[0])
    second = mo.kernel_K(blocks, 3000, seed=2, streams=streams)
    merged = mo._merge_passes(500, *first, 1500, *second)
    fresh = mo.kernel_K(blocks, 4000, seed=2)
    np.testing.assert_allclose(merged[0], fresh[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(merged[1], fresh[1], rtol=1e-12, atol=0)


def test_kernel_deterministic():
    blocks = cv.blocks_at(sf.SphereModel(2, 9), 1.1)
    assert mo.kernel_K(blocks, 5000, seed=4) == mo.kernel_K(blocks, 5000, seed=4)


def test_kernel_positive_and_bounded_on_grid():
    model = sf.SphereModel(2, 15)
    for theta in np.linspace(0.2, math.pi - 0.2, 40):
        blocks = cv.blocks_at(model, float(theta))
        value, _ = mo.kernel_K(blocks, 4000, seed=1)
        assert value > 0
        assert value <= 2 * model.E / math.sqrt(1 - blocks.u**2)


# ---------------------------------------------------------------------------
# Leray second moment / variance
# ---------------------------------------------------------------------------

def test_leray_variance_nonnegative():
    for m, n in [(2, 5), (2, 17), (3, 12), (4, 9)]:
        assert mo.leray_variance(sf.SphereModel(m, n)) >= 0.0


def test_leray_variance_matches_external_oracle():
    # adaptive quadrature oracle, independent panelization
    integrate = pytest.importorskip("scipy.integrate")
    model = sf.SphereModel(2, 10)

    def integrand(t):
        q = sf.gegenbauer_q(model, t)
        return (1.0 / math.sqrt(max(1e-300, 1 - q * q)) - 1.0) * 2 * math.pi

    ref, _ = integrate.quad(integrand, -1, 1, limit=400)
    var = mo.leray_variance(model)
    assert var == pytest.approx(2.0 * ref / (2 * math.pi) * 2 * math.pi, rel=1e-8)


def test_leray_variance_asymptotic_constants():
    assert mo.leray_variance_asymptotic(sf.SphereModel(2, 10)) == pytest.approx(
        4 * math.pi / 21, rel=1e-12
    )
    assert mo.leray_variance_asymptotic(sf.SphereModel(2, 20)) == pytest.approx(
        4 * math.pi / 41, rel=1e-12
    )
    # at m = 3 the constant is pi^3 once the 1/(m-1)! from N ~ 2 n^{m-1}/(m-1)!
    # is carried through
    model = sf.SphereModel(3, 10)
    assert mo.leray_variance_asymptotic(model) == pytest.approx(
        math.pi**3 / model.N, rel=1e-12
    )


def test_leray_variance_ratio_converges():
    ratios = {}
    for n in (10, 80):
        model = sf.SphereModel(2, n)
        ratios[n] = model.N * mo.leray_variance(model) / (4 * math.pi)
    assert abs(ratios[80] - 1.0) < abs(ratios[10] - 1.0)
    assert 0.93 <= ratios[80] <= 1.07


def test_leray_quadrature_panel_stability():
    model = sf.SphereModel(2, 25)
    v1 = mo.leray_second_moment(model, mo.QuadratureSpec())
    v2 = mo.leray_second_moment(model, mo.QuadratureSpec(panels_per_oscillation=16))
    assert abs(v2 - v1) <= 1e-8 * abs(v1)


def test_singular_interval_mass_scaling():
    fit = mo.singular_interval_mass(sf.SphereModel(2, 10)) * 10**2
    for n in (20, 40, 80, 160):
        mass = mo.singular_interval_mass(sf.SphereModel(2, n)) * n**2
        assert mass <= 1.5 * fit


# ---------------------------------------------------------------------------
# Volume second moment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def volume_reports():
    quad = mo.QuadratureSpec(relative_tolerance=1e-3)
    return {
        n: mo.volume_second_moment(sf.SphereModel(2, n), quad, mc_paths=20000, seed=3)
        for n in (10, 20, 40)
    }


def test_volume_second_moment_invariants(volume_reports):
    for n, rep in volume_reports.items():
        assert rep.second_moment >= rep.expectation**2 - 1e-9 * abs(rep.second_moment)
        assert rep.variance == rep.second_moment - rep.expectation**2
        assert rep.variance >= -3 * rep.mc_std_error
        assert rep.singular_contribution > 0
        assert rep.nonsingular_contribution > 0


def test_volume_variance_scaling_one_sided(volume_reports):
    base = volume_reports[10].variance * math.sqrt(sf.SphereModel(2, 10).N) / sf.SphereModel(2, 10).E
    for n in (20, 40):
        model = sf.SphereModel(2, n)
        value = volume_reports[n].variance * math.sqrt(model.N) / model.E
        assert value <= 1.5 * base


def test_singular_budget_tracks_epsilon_rate(volume_reports):
    fit = volume_reports[10].singular_contribution / (
        sf.SphereModel(2, 10).E * sf.epsilon_rate(2, 10)
    )
    for n in (20, 40):
        model = sf.SphereModel(2, n)
        budget = volume_reports[n].singular_contribution
        assert budget <= 1.5 * fit * model.E * sf.epsilon_rate(2, n)


def test_volume_independence_sanity():
    # factorized kernel over the full measure reproduces the squared expectation
    model = sf.SphereModel(2, 10)
    value, se = mo.kernel_K(independence_blocks(model), 100000, seed=9)
    vol = sphere_volume(2)
    second = vol * value * vol
    target = mo.volume_expectation(model) ** 2
    assert abs(second - target) <= 3 * vol * vol * se


def test_volume_second_moment_rejects_degenerate_degree():
    with pytest.raises(cv.DegenerateCovarianceError) as err:
        mo.volume_second_moment(sf.SphereModel(2, 2), mo.QuadratureSpec(relative_tolerance=1e-3),
                                mc_paths=2000, seed=0)
    assert "theta" in str(err.value)
    assert "at 128 quadrature nodes" in str(err.value)  # every node, not the first
    assert err.value.eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert err.value.theta is not None and 0.0 < err.value.theta < math.pi


def test_no_production_path_assembles_omega_or_sigma(monkeypatch, capsys):
    from sphnodal import cli

    def refuse(blocks):
        raise AssertionError("assembled covariance matrix on a production path")

    calls = []
    kernel = mo.kernel_K

    def counted_kernel(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(cv, "omega_matrix", refuse)
    monkeypatch.setattr(cv, "sigma_matrix", refuse)
    monkeypatch.setattr(mo, "kernel_K", counted_kernel)
    rep = mo.volume_second_moment(sf.SphereModel(2, 10), mo.QuadratureSpec(relative_tolerance=1e-3),
                                  mc_paths=20000, seed=3)
    # one kernel_K call per Monte Carlo pass; a doubled pass draws only the new paths
    assert calls == [20000] + [20000 * 2**k for k in range(len(calls) - 1)]
    assert sum(calls) == rep.mc_paths
    mo.sigma_scaling_report(sf.SphereModel(2, 10))
    passes = len(calls)
    assert cli.main(["kernel-profile", "--n", "8,9", "--theta-points", "5",
                     "--mc-paths", "400"]) == 0
    assert len(calls) == passes + 2  # one per degree
    assert capsys.readouterr().out.count("\n") == 2 + 10


def test_doubled_volume_pass_continues_node_streams(monkeypatch):
    quad = mo.QuadratureSpec(relative_tolerance=1e-3)
    model = sf.SphereModel(2, 10)
    fresh = mo.volume_second_moment(model, quad, mc_paths=4000, seed=3)
    pairs = []
    kernel = mo.kernel_K

    def counted_kernel(blocks, mc_paths, seed, **kwargs):
        pairs.append(mc_paths // 2)
        return kernel(blocks, mc_paths, seed, **kwargs)

    monkeypatch.setattr(mo, "kernel_K", counted_kernel)
    doubled = mo.volume_second_moment(model, quad, mc_paths=2000, seed=3)
    assert doubled.mc_paths == fresh.mc_paths == 4000
    assert pairs == [1000, 1000]  # mc_paths / 2 pairs per node in total
    for field in ("nonsingular_contribution", "mc_std_error", "variance"):
        assert getattr(doubled, field) == pytest.approx(getattr(fresh, field), rel=1e-12, abs=0)


def test_leray_integrand_raises_where_q_reaches_one():
    f = mo._leray_integrand(sf.SphereModel(2, 10))
    with pytest.raises(RuntimeError, match="theta = 0"):
        f(np.array([0.5, 0.0, 1.0]))
    assert np.all(f(np.array([0.5, 1.0])) > 0)


def test_volume_report_dict_roundtrip(volume_reports):
    d = volume_reports[10].as_dict()
    assert d["m"] == 2 and d["n"] == 10 and d["N"] == 21
    assert d["variance"] == volume_reports[10].variance


# ---------------------------------------------------------------------------
# Spectral-norm scaling
# ---------------------------------------------------------------------------

def test_sigma_scaling_bounded():
    base_sq = None
    base_lin = None
    for n in (10, 20, 40, 80):
        model = sf.SphereModel(2, n)
        int_sigma, int_sigma_sq = mo.sigma_scaling_report(model)
        lin = int_sigma * math.sqrt(model.N)
        sq = int_sigma_sq * model.N
        if n == 10:
            base_lin, base_sq = lin, sq
        assert sq <= 1.5 * base_sq
        assert lin <= 1.5 * base_lin


def _sigma_scaling_oracle(model):
    # S = I - (m/E) Omega written out entry by entry from the aligned-frame
    # scalars, independent of covariance.omega_matrix and omega_spectrum
    m = model.m
    quad = mo.QuadratureSpec()
    theta_c = mo._split_theta(model, quad.singular_split_eps0)
    nodes, weights = sf._panel_nodes(theta_c, math.pi - theta_c,
                                     quad.panels_per_oscillation * model.n)
    weights = weights * sf.mu_weight_constant(m) * np.sin(nodes) ** (m - 1)
    q, dq, d2q = sf.gegenbauer_eval_arrays(model, np.cos(nodes))
    t = np.cos(nodes)
    u, d_long, h_long, h_trans = q, dq * np.sin(nodes), -(1 - t * t) * d2q + t * dq, dq
    scale = model.E / m
    rho = d_long**2 / (1.0 - u**2)
    s_all = np.zeros((nodes.size, 2 * m, 2 * m))
    s_all[:, 0, 0] = s_all[:, m, m] = rho / scale
    for j in range(m):
        off = -(h_long if j == 0 else h_trans) / scale + (u * rho / scale if j == 0 else 0.0)
        s_all[:, j, m + j] = s_all[:, m + j, j] = off
    eigs = np.linalg.eigvalsh(s_all)
    sigma = np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1]))
    return float(np.dot(weights, sigma)), float(np.dot(weights, sigma**2))


@pytest.mark.parametrize("n", [10, 20])
def test_sigma_scaling_matches_hand_built_s(n):
    model = sf.SphereModel(2, n)
    got = mo.sigma_scaling_report(model)
    want = _sigma_scaling_oracle(model)
    assert got == pytest.approx(want, rel=1e-12)


def test_sigma_scaling_cauchy_schwarz():
    model = sf.SphereModel(2, 20)
    int_sigma, int_sigma_sq = mo.sigma_scaling_report(model)
    mass = sphere_volume(2) - mo.singular_interval_mass(model)
    assert int_sigma**2 <= int_sigma_sq * mass * (1 + 1e-12)
