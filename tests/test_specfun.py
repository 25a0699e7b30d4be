import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphnodal import specfun as sf


def test_sphere_model_derived_quantities():
    model = sf.SphereModel(2, 10)
    assert model.E == 110
    assert model.N == 21
    assert model.alpha == 0.0
    model = sf.SphereModel(5, 7)
    assert model.E == 7 * (7 + 4)
    assert model.alpha == 1.5


def test_eigenspace_dimension_m2_and_asymptotics():
    for n in range(1, 50):
        assert sf.SphereModel(2, n).N == 2 * n + 1
    # N ~ 2 n^{m-1} / (m-1)!
    for m in (2, 3, 4):
        ratios = [
            sf.SphereModel(m, n).N / (2.0 * n ** (m - 1) / math.factorial(m - 1))
            for n in (50, 100, 200)
        ]
        assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0) + 1e-12
        assert abs(ratios[-1] - 1.0) < 0.05


def test_sphere_model_validation():
    with pytest.raises(ValueError):
        sf.SphereModel(1, 3)
    with pytest.raises(ValueError):
        sf.SphereModel(2, -1)


def test_q_value_at_one_is_exact():
    for m in (2, 3, 4, 6):
        for n in (0, 1, 5, 40, 200):
            assert sf.gegenbauer_q(sf.SphereModel(m, n), 1.0) == 1.0


def test_q_known_values():
    assert sf.gegenbauer_q(sf.SphereModel(2, 1), 0.3) == pytest.approx(0.3, abs=1e-15)
    # C_2^1(t) = 4t^2 - 1, C_2^1(1) = 3
    assert sf.gegenbauer_q(sf.SphereModel(3, 2), 0.0) == pytest.approx(-1 / 3, abs=1e-15)
    # Legendre P_2
    assert sf.gegenbauer_q(sf.SphereModel(2, 2), 0.0) == pytest.approx(-0.5, abs=1e-15)


def test_q_domain_error():
    with pytest.raises(ValueError):
        sf.gegenbauer_q(sf.SphereModel(2, 3), 1.2)


def test_large_degree_does_not_overflow():
    q = sf.gegenbauer_q(sf.SphereModel(2, 10**5), 0.37)
    assert abs(q) <= 1.0 + 1e-12


@given(
    m=st.integers(min_value=2, max_value=5),
    n=st.integers(min_value=0, max_value=80),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=200, deadline=None)
def test_q_bounded_and_parity(m, n, t):
    model = sf.SphereModel(m, n)
    q = sf.gegenbauer_q(model, t)
    assert abs(q) <= 1.0 + 1e-12
    q_neg = sf.gegenbauer_q(model, -t)
    assert q_neg == pytest.approx((-1.0) ** n * q, abs=1e-12)


def test_q_maximum_band_is_near_endpoints():
    # |Q| = 1 only inside theta < 3/n of the endpoints
    for m, n in [(2, 30), (3, 45)]:
        model = sf.SphereModel(m, n)
        thetas = np.linspace(3.0 / n, math.pi - 3.0 / n, 4000)
        q = sf.gegenbauer_q(model, np.cos(thetas))
        assert np.max(np.abs(q)) < 1.0


def test_endpoint_derivatives():
    _, dq, _ = sf.gegenbauer_eval_arrays(sf.SphereModel(2, 5), 1.0)
    assert dq == pytest.approx(30 / 2, abs=1e-12)
    _, dq, _ = sf.gegenbauer_eval_arrays(sf.SphereModel(2, 5), -1.0)
    assert dq == pytest.approx(15.0, abs=1e-12)  # (-1)^{n+1} E/m at n = 5
    q, dq, d2q = sf.gegenbauer_eval_arrays(sf.SphereModel(2, 2), 0.0)
    assert (q, dq, d2q) == pytest.approx((-0.5, 0.0, 3.0), abs=1e-12)
    # second derivative at 1 from the differentiated ODE
    _, _, d2q = sf.gegenbauer_eval_arrays(sf.SphereModel(2, 2), 1.0)
    assert d2q == pytest.approx((6 - 2) * 6 / (2 * 4), abs=1e-12)


def test_derivative_matches_finite_difference():
    h = 1e-5
    for m, n in [(2, 3), (2, 25), (3, 12), (4, 8)]:
        model = sf.SphereModel(m, n)
        for t in np.linspace(-0.999, 0.999, 41):
            fd = (sf.gegenbauer_q(model, t + h) - sf.gegenbauer_q(model, t - h)) / (2 * h)
            _, dq, _ = sf.gegenbauer_eval_arrays(model, t)
            assert fd == pytest.approx(dq, rel=1e-6, abs=1e-8)


def test_ode_residual():
    t = np.linspace(-1.0, 1.0, 1000)
    for m in (2, 3, 4):
        for n in range(1, 61):
            model = sf.SphereModel(m, n)
            q, dq, d2q = sf.gegenbauer_eval_arrays(model, t)
            res = (1 - t * t) * d2q - m * t * dq + model.E * q
            bound = 1e-8 * model.E * np.maximum(1.0, np.abs(q))
            assert np.all(np.abs(res) <= bound)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------

def test_bessel_basic_values():
    assert sf.bessel_j(0, 0.0) == 1.0
    assert sf.bessel_j(0.5, math.pi) == pytest.approx(0.0, abs=1e-14)
    assert sf.bessel_j(0.0, 2.404825557695773) == pytest.approx(0.0, abs=1e-9)
    assert sf.bessel_j(1.5, 0.0) == 0.0


def test_bessel_first_zero_by_bisection():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sf.bessel_j(0.0, lo) * sf.bessel_j(0.0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(2.404825557695773, abs=1e-12)


def test_bessel_bounded_and_matches_scipy():
    sp = pytest.importorskip("scipy.special")
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        for x in np.linspace(0.0, 250.0, 301):
            val = sf.bessel_j(alpha, float(x))
            assert abs(val) <= 1.0 + 1e-12
            assert val == pytest.approx(float(sp.jv(alpha, x)), abs=5e-11)


def test_bessel_rejects_unsupported_order():
    with pytest.raises(ValueError):
        sf.bessel_j(0.3, 1.0)
    with pytest.raises(ValueError):
        sf.bessel_j(-0.5, 1.0)


def test_c_tilde():
    assert sf.c_tilde(2) == pytest.approx(1.0, abs=1e-15)
    assert sf.c_tilde(4) == pytest.approx(2.0, rel=1e-14)
    assert sf.c_tilde(3) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)


# ---------------------------------------------------------------------------
# Hilb approximation
# ---------------------------------------------------------------------------

def test_hilb_matches_recurrence_within_envelope():
    for m, n in [(2, 50), (3, 40)]:
        model = sf.SphereModel(m, n)
        for theta in np.linspace(5.0 / n, math.pi / 2, 150):
            approx, env = sf.hilb_approx(model, float(theta))
            exact = sf.gegenbauer_q(model, math.cos(theta))
            assert abs(approx - exact) <= env


def test_hilb_small_angle_limit_is_one():
    model = sf.SphereModel(2, 50)
    approx, _ = sf.hilb_approx(model, 1e-6)
    assert approx == pytest.approx(1.0, abs=1e-6)
    model = sf.SphereModel(3, 40)
    approx, _ = sf.hilb_approx(model, 1e-6)
    assert approx == pytest.approx(1.0, abs=1e-6)


def test_hilb_domain():
    model = sf.SphereModel(2, 10)
    with pytest.raises(ValueError):
        sf.hilb_approx(model, 0.0)
    with pytest.raises(ValueError):
        sf.hilb_approx(model, 2.0)


# ---------------------------------------------------------------------------
# Moment integrals
# ---------------------------------------------------------------------------

def test_q2_moment_known_values():
    assert sf.moment_integral(sf.SphereModel(2, 10), "Q2") == pytest.approx(
        4 * math.pi / 21, rel=1e-10
    )
    assert sf.moment_integral(sf.SphereModel(2, 0), "Q2") == pytest.approx(
        4 * math.pi, rel=1e-10
    )


def test_q2_matches_closed_form():
    for m in (2, 3, 4, 5):
        for n in (0, 1, 7, 23, 40):
            model = sf.SphereModel(m, n)
            quad = sf.moment_integral(model, "Q2")
            closed = sf.second_moment_closed_form(model)
            assert quad == pytest.approx(closed, rel=1e-8)


def test_closed_form_reductions():
    assert sf.second_moment_closed_form(sf.SphereModel(2, 10)) == pytest.approx(
        4 * math.pi / 21, rel=1e-14
    )
    assert sf.second_moment_closed_form(sf.SphereModel(2, 0)) == pytest.approx(
        4 * math.pi, rel=1e-14
    )


def test_moment_kind_validation():
    with pytest.raises(ValueError):
        sf.moment_integral(sf.SphereModel(2, 3), "Q3")
    with pytest.raises(ValueError):
        sf.moment_integral(sf.SphereModel(2, 3), ("Q2", "Q3"))


def _single_kind_moment(model, kind):
    # one kind at a time, with its own recurrence per level and its own
    # doubling loop: the reference the shared levels must reproduce
    m = model.m
    wm = sf.mu_weight_constant(m)

    def integrand(thetas):
        t = np.cos(thetas)
        q, dq, d2q = sf.gegenbauer_eval_arrays(model, t)
        g = {"Q2": q**2, "Q4": q**4, "DQ2": dq**2, "DQ4_weighted": dq**4 * (1.0 - t * t) ** 2,
             "D2Q2_weighted": d2q**2 * (1.0 - t * t) ** 2}[kind]
        return wm * g * np.sin(thetas) ** (m - 1)

    panels = max(8, 8 * model.n)
    nodes, weights = sf._panel_nodes(0.0, math.pi, panels)
    val = float(np.dot(weights, integrand(nodes)))
    for _ in range(8):
        panels *= 2
        nodes, weights = sf._panel_nodes(0.0, math.pi, panels)
        new = float(np.dot(weights, integrand(nodes)))
        if abs(new - val) <= 1e-10 * max(1.0, abs(new)):
            return new
        val = new
    raise AssertionError("reference quadrature did not converge")


@pytest.mark.parametrize("n", [10, 80])
def test_shared_moment_levels_match_single_kind_loop(n):
    model = sf.SphereModel(2, n)
    together = sf.moment_integral(model, sf.MOMENT_KINDS)
    assert together == tuple(_single_kind_moment(model, kind) for kind in sf.MOMENT_KINDS)
    assert together == tuple(sf.moment_integral(model, kind) for kind in sf.MOMENT_KINDS)


def test_moments_table_runs_two_recurrences_per_row(monkeypatch, capsys):
    from sphnodal import cli

    calls = []
    q_pair = sf._q_pair

    def counted(model, t):
        calls.append(model.n)
        return q_pair(model, t)

    monkeypatch.setattr(sf, "_q_pair", counted)
    assert cli.main(["moments-table", "--m", "2", "--n", "10,40"]) == 0
    # Q2, Q4 and DQ2 share the 8n- and 16n-panel levels of each row
    assert calls == [10, 10, 40, 40]
    capsys.readouterr()


def test_second_moment_scaling():
    for m in (2, 3):
        model = sf.SphereModel(m, 80)
        val = 80 ** (m - 1) * sf.moment_integral(model, "Q2")
        limit = 2 ** (m - 1) * math.pi ** (m / 2) * math.gamma(m / 2)
        assert abs(val / limit - 1.0) <= 0.03


def test_fourth_moment_loglog_slope():
    ns = np.array([20, 40, 80, 160])
    vals = [sf.moment_integral(sf.SphereModel(2, int(n)), "Q4") for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert -2.3 <= slope <= -1.8


def test_derivative_moment_growth_bounded():
    # fit at n = 20, never exceeded by more than 50% up to n = 160
    fit = sf.moment_integral(sf.SphereModel(2, 20), "DQ2") / (20**2 * math.log(20))
    for n in (40, 80, 160):
        ratio = sf.moment_integral(sf.SphereModel(2, n), "DQ2") / (n**2 * math.log(n))
        assert ratio <= 1.5 * fit


def test_weighted_derivative_moments_bounded():
    fit4 = sf.moment_integral(sf.SphereModel(2, 10), "DQ4_weighted") / (10**2 * math.log(10))
    fit2 = sf.moment_integral(sf.SphereModel(2, 10), "D2Q2_weighted") / 10**3
    for n in (40, 160):
        r4 = sf.moment_integral(sf.SphereModel(2, n), "DQ4_weighted") / (n**2 * math.log(n))
        r2 = sf.moment_integral(sf.SphereModel(2, n), "D2Q2_weighted") / n**3
        assert r4 <= 1.5 * fit4
        assert r2 <= 1.5 * fit2


# ---------------------------------------------------------------------------
# Nonsingular split and rates
# ---------------------------------------------------------------------------

def test_find_c0_verifies_on_grid():
    for m, n in [(2, 40), (3, 40)]:
        model = sf.SphereModel(m, n)
        c0 = sf.find_c0(model, 0.9)
        step = math.pi / (64 * n)
        thetas = np.arange(step, math.pi - step / 2, step)
        t = np.cos(thetas)
        inside = np.abs(t) <= 1 - c0 / n**2
        assert np.max(np.abs(sf.gegenbauer_q(model, t[inside]))) <= 0.9


def test_find_c0_monotone_in_eps0():
    model = sf.SphereModel(2, 40)
    assert sf.find_c0(model, 0.999) <= sf.find_c0(model, 0.9)


def test_find_c0_validation():
    with pytest.raises(ValueError):
        sf.find_c0(sf.SphereModel(2, 40), 1.5)
    with pytest.raises(ValueError):
        sf.find_c0(sf.SphereModel(2, 1), 0.9)


def test_epsilon_rate():
    assert sf.epsilon_rate(2, 10) == pytest.approx(math.log(10) / 100, rel=1e-14)
    assert sf.epsilon_rate(3, 10) == pytest.approx(1e-3, rel=1e-14)
    assert sf.epsilon_rate(2, 3) == pytest.approx(math.log(3) / 9, rel=1e-14)
    with pytest.raises(ValueError):
        sf.epsilon_rate(2, 1)


def test_unconverged_quadrature_raises():
    # a step inside a panel converges only at first order in the panel width
    step = lambda th: (th > 1.0).astype(float)  # noqa: E731
    with pytest.raises(RuntimeError, match="did not converge"):
        sf._integrate_theta(step, 0.0, math.pi, 3, rtol=1e-15)
    assert sf._integrate_theta(np.sin, 0.0, math.pi, 3) == pytest.approx(2.0, rel=1e-12)
    # a NaN change is not convergence
    with pytest.raises(RuntimeError, match="did not converge"):
        sf._integrate_theta(lambda th: np.full_like(th, np.nan), 0.0, math.pi, 3)

