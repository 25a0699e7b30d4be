import math
import threading

import numpy as np
import pytest

from sphnodal import covariance as cv
from sphnodal import moments as mo
from sphnodal import specfun as sf
from sphnodal.geometry import sphere_volume

from conftest import epsilon_rate


def independence_blocks(model, u=0.0):
    return cv.CovarianceBlocks(model=model, theta=1.0, u=u, d_long=0.0,
                               h_long=0.0, h_trans=0.0, scale=model.E / model.m)


def singular_interval_mass(model, eps0=0.9):
    """mu measure of the complement of the nonsingular interval."""
    theta_c = mo._split_theta(model, eps0)
    f = lambda th: mo._mu_theta_weight(model.m, th)
    return (sf._integrate_theta(f, 0.0, theta_c, 16, rtol=1e-12)
            + sf._integrate_theta(f, math.pi - theta_c, math.pi, 16, rtol=1e-12))


def sigma_scaling_report(model):
    """Integrals of the spectral norm of S and of its square over the
    nonsingular interval, against dmu."""
    _, nodes, weights = mo._nonsingular_nodes(model, 0.9)
    blocks = cv.blocks_at(model, nodes)
    sigma = cv.sigma_norm(cv.omega_spectrum(blocks), blocks.scale)
    return float(np.dot(weights, sigma)), float(np.dot(weights, sigma**2))


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


def test_split_level_validation():
    # find_c0 is the one place that checks eps0
    with pytest.raises(ValueError, match="eps0 must lie in"):
        mo.volume_second_moment(sf.SphereModel(2, 10), eps0=1.0)


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


SHARE_RECORDS = {
    "2x3": np.linspace(0.4, 2.6, 6).reshape(2, 3),
    "3 nodes": np.array([0.5, 1.3, 2.2]),
    "scalar": 1.1,
}


@pytest.mark.parametrize("record", sorted(SHARE_RECORDS))
@pytest.mark.parametrize("m, n", [(2, 9), (3, 7)])
def test_kernel_does_not_depend_on_the_cpu_count(monkeypatch, m, n, record):
    # the 3-node record and the scalar have fewer nodes than some counts
    # give shares, so those counts are capped at the node count
    blocks = cv.blocks_at(sf.SphereModel(m, n), SHARE_RECORDS[record])
    results = {}
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(mo, "_usable_cpus", lambda: cpus)
        results[cpus] = mo.kernel_K(blocks, 400, seed=6)
    values, errs = results[1]
    assert np.shape(values) == np.shape(SHARE_RECORDS[record])
    for cpus in (2, 3, 4):
        assert np.array_equal(results[cpus][0], values)
        assert np.array_equal(results[cpus][1], errs)


@pytest.mark.parametrize("cpus, theta", [(1, np.linspace(0.4, 2.6, 6)), (4, 1.1)])
def test_kernel_starts_no_thread_for_one_share(monkeypatch, cpus, theta):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(mo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(mo.threading, "Thread", no_thread)
    mo.kernel_K(cv.blocks_at(sf.SphereModel(2, 9), theta), 400, seed=6)


@pytest.mark.parametrize("node", [0, 5], ids=["first share", "last share"])
@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_kernel_raises_an_error_of_any_share(monkeypatch, cpus, node):
    # of the six nodes, node 0 lies in the caller's share and node 5 in the
    # last helper's at every count
    blocks = cv.blocks_at(sf.SphereModel(2, 9), np.linspace(0.4, 2.6, 6).reshape(2, 3))
    failing = mo._node_seed(6, node)
    philox = np.random.Philox

    def flaky(seed):
        if seed.entropy == failing:
            raise RuntimeError(f"draw failed at node {node}")
        return philox(seed)

    monkeypatch.setattr(mo, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(np.random, "Philox", flaky)
    threads = threading.active_count()
    result = None
    with pytest.raises(RuntimeError, match=f"draw failed at node {node}"):
        result = mo.kernel_K(blocks, 400, seed=6)
    assert result is None
    # every helper was joined before the error reached the caller
    assert threading.active_count() == threads


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
    # adaptive quadrature oracle in t, independent panelization
    integrate = pytest.importorskip("scipy.integrate")
    model = sf.SphereModel(2, 10)

    def integrand(t):
        q = sf.gegenbauer_q(model, t)
        return (1.0 / math.sqrt(max(1e-300, 1 - q * q)) - 1.0) * 2 * math.pi

    ref, _ = integrate.quad(integrand, -1, 1, limit=400)
    var = mo.leray_variance(model)
    assert var == pytest.approx(2.0 * ref / (2 * math.pi) * 2 * math.pi, rel=1e-8)

    # m = 3: dmu = |S^2| sqrt(1 - t^2) dt, and the integrand in its
    # subtracted form Q^2 / (s (1 + s)), s = sqrt(1 - Q^2)
    model = sf.SphereModel(3, 10)

    def subtracted(t):
        q = sf.gegenbauer_q(model, t)
        s = math.sqrt(1 - q * q)
        return q * q / (s * (1 + s)) * sphere_volume(2) * math.sqrt(1 - t * t)

    ref, _ = integrate.quad(subtracted, -1, 1, limit=400, epsabs=0.0, epsrel=1e-12)
    assert mo.leray_variance(model) == pytest.approx(sphere_volume(3) / (2 * math.pi) * ref,
                                                     rel=1e-8)


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
    # the single integral started from twice the panels agrees with the
    # production value
    model = sf.SphereModel(2, 25)
    total = sf._integrate_theta(mo._leray_integrand(model), 0.0, math.pi, 16 * model.n)
    v1 = mo.leray_variance(model)
    v2 = sphere_volume(2) / (2 * math.pi) * total
    assert abs(v2 - v1) <= 1e-8 * abs(v1)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 80])
def test_leray_variance_half_range_matches_full_range(m, n):
    # the integrand depends on Q_n^2, even about theta = pi/2 for odd n too
    model = sf.SphereModel(m, n)
    full = sf._integrate_theta(mo._leray_integrand(model), 0.0, math.pi,
                               max(8, sf.PANELS_PER_DEGREE * n))
    value = mo.leray_variance(model)
    assert value == pytest.approx(sphere_volume(m) / (2 * math.pi) * full, rel=1e-12)


def test_singular_interval_mass_scaling():
    fit = singular_interval_mass(sf.SphereModel(2, 10)) * 10**2
    for n in (20, 40, 80, 160):
        mass = singular_interval_mass(sf.SphereModel(2, n)) * n**2
        assert mass <= 1.5 * fit


# ---------------------------------------------------------------------------
# Volume second moment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def volume_reports():
    return {
        n: mo.volume_second_moment(sf.SphereModel(2, n), mc_paths=20000, seed=3)
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
        sf.SphereModel(2, 10).E * epsilon_rate(2, 10)
    )
    for n in (20, 40):
        model = sf.SphereModel(2, n)
        budget = volume_reports[n].singular_contribution
        assert budget <= 1.5 * fit * model.E * epsilon_rate(2, n)


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 10, 40, 160])
def test_tips_match_both_tips_integrated(m, n):
    # dmu / sqrt(1 - Q^2) is even about theta = pi/2, so twice the [0, theta_c]
    # tip stands for both
    model = sf.SphereModel(m, n)
    theta_c = mo._split_theta(model, 0.9)
    leray = mo._leray_integrand(model)

    def f(thetas):
        return mo._mu_theta_weight(m, thetas) + leray(thetas)

    both = (sf._integrate_theta(f, 0.0, theta_c, 16)
            + sf._integrate_theta(f, math.pi - theta_c, math.pi, 16))
    tips = mo._tips(model, theta_c)
    assert isinstance(tips, float)
    assert tips == pytest.approx(both, rel=1e-12)


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
        mo.volume_second_moment(sf.SphereModel(2, 2), mc_paths=2000, seed=0)
    assert "theta" in str(err.value)
    assert "at 128 quadrature nodes" in str(err.value)  # every node, not the first
    assert err.value.eigenvalue == pytest.approx(0.0, abs=1e-12)
    assert err.value.theta is not None and 0.0 < err.value.theta < math.pi


@pytest.fixture
def kernel_calls(monkeypatch):
    """The path count of every kernel_K call, in call order."""
    calls = []
    kernel = mo.kernel_K

    def counted_kernel(blocks, mc_paths, seed):
        calls.append(mc_paths)
        return kernel(blocks, mc_paths, seed)

    monkeypatch.setattr(mo, "kernel_K", counted_kernel)
    return calls


def test_no_production_path_assembles_omega_or_sigma(monkeypatch, capsys, kernel_calls):
    from sphnodal import cli

    def refuse(blocks):
        raise AssertionError("assembled covariance matrix on a production path")

    monkeypatch.setattr(cv, "sigma_matrix", refuse)
    rep = mo.volume_second_moment(sf.SphereModel(2, 10), mc_paths=20000, seed=3)
    # one kernel_K call per Monte Carlo pass; a widened pass draws all its paths afresh
    assert kernel_calls == [20000 * 2**k for k in range(len(kernel_calls))]
    assert kernel_calls[-1] == rep.mc_paths
    passes = len(kernel_calls)
    assert cli.main(["kernel-profile", "--n", "8,9", "--theta-points", "5",
                     "--mc-paths", "400"]) == 0
    assert len(kernel_calls) == passes + 2  # one per degree
    assert capsys.readouterr().out.count("\n") == 2 + 10


def test_doubled_volume_pass_continues_node_streams(kernel_calls):
    model = sf.SphereModel(2, 10)
    fresh = mo.volume_second_moment(model, mc_paths=4000, seed=3)
    kernel_calls.clear()
    doubled = mo.volume_second_moment(model, mc_paths=2000, seed=3)
    # the widened pass restarts every node's stream, so it redraws the first
    # pass's pairs and equals a single run at 4000 paths bit for bit
    assert kernel_calls == [2000, 4000]
    assert vars(doubled) == vars(fresh)


def test_volume_widening_stops_at_eight_times_the_paths(kernel_calls):
    with pytest.raises(RuntimeError, match="after widening to 800 paths"):
        mo.volume_second_moment(sf.SphereModel(2, 3), eps0=0.99, mc_paths=100, seed=7)
    assert kernel_calls == [100, 200, 400, 800]


def test_leray_integrand_raises_where_q_reaches_one():
    f = mo._leray_integrand(sf.SphereModel(2, 10))
    with pytest.raises(RuntimeError, match="theta = 0"):
        f(np.array([0.5, 0.0, 1.0]))
    assert np.all(f(np.array([0.5, 1.0])) > 0)


# ---------------------------------------------------------------------------
# Spectral-norm scaling
# ---------------------------------------------------------------------------

def test_sigma_scaling_bounded():
    base_sq = None
    base_lin = None
    for n in (10, 20, 40, 80):
        model = sf.SphereModel(2, n)
        int_sigma, int_sigma_sq = sigma_scaling_report(model)
        lin = int_sigma * math.sqrt(model.N)
        sq = int_sigma_sq * model.N
        if n == 10:
            base_lin, base_sq = lin, sq
        assert sq <= 1.5 * base_sq
        assert lin <= 1.5 * base_lin


def _sigma_scaling_oracle(model):
    # S = I - (m/E) Omega written out entry by entry from the aligned-frame
    # scalars, independent of test_covariance.omega_matrix and omega_spectrum
    m = model.m
    theta_c = mo._split_theta(model, 0.9)
    nodes, weights = sf._panel_nodes(theta_c, math.pi - theta_c, sf.PANELS_PER_DEGREE * model.n)
    weights = weights * sphere_volume(m - 1) * np.sin(nodes) ** (m - 1)
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
    got = sigma_scaling_report(model)
    want = _sigma_scaling_oracle(model)
    assert got == pytest.approx(want, rel=1e-12)


def test_sigma_scaling_cauchy_schwarz():
    model = sf.SphereModel(2, 20)
    int_sigma, int_sigma_sq = sigma_scaling_report(model)
    mass = sphere_volume(2) - singular_interval_mass(model)
    assert int_sigma**2 <= int_sigma_sq * mass * (1 + 1e-12)
