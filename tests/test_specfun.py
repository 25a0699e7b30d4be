import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphnodal import specfun as sf
from sphnodal.geometry import sphere_volume

from conftest import c_tilde, epsilon_rate, hilb_approx


def test_sphere_model_derived_quantities():
    model = sf.SphereModel(2, 10)
    assert model.E == 110
    assert model.N == 21
    model = sf.SphereModel(5, 7)
    assert model.E == 7 * (7 + 4)


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


@pytest.mark.parametrize("evaluate", [sf.gegenbauer_q, sf.gegenbauer_eval_arrays])
@pytest.mark.parametrize("t", [math.nan, [0.5, math.nan], np.array([1.0, math.nan, -1.0])],
                         ids=["scalar", "list", "array"])
def test_nan_argument_is_refused(evaluate, t):
    # np.abs(nan) > 1 is False, so a NaN needs a check that it fails
    with pytest.raises(ValueError, match="must lie in"):
        evaluate(sf.SphereModel(2, 5), t)


def _allocating_q_pair(model, t):
    # the recurrence as it stood with a fresh array per step
    m, n = model.m, model.n
    if n == 0:
        return np.ones_like(t), np.zeros_like(t)
    q_prev = np.ones_like(t)
    q = np.array(t, copy=True)
    for k in range(2, n + 1):
        q, q_prev = ((2 * k + m - 3) * t * q - (k - 1) * q_prev) / (k + m - 2), q
    return q, q_prev


@pytest.mark.parametrize("n", [0, 1, 2, 7, 640])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("shape", [(), (41,), (6, 7)], ids=["scalar", "1d", "2d"])
def test_in_place_recurrence_matches_allocating_form(m, n, shape):
    size = math.prod(shape)
    t = np.cos(np.linspace(0.0, math.pi, size) + 0.01).reshape(shape)
    model = sf.SphereModel(m, n)
    got = sf._q_pair(model, t)
    want = _allocating_q_pair(model, t)
    for a, b in zip(got, want):
        assert np.shape(a) == np.shape(b) == shape
        assert np.array_equal(a, b)


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


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 4, 5, 40])
def test_pole_band_takes_the_ode_limits(m, n):
    # 1 - t^2 is about 4e-14 at t = +-(1 - 2e-14), inside the 1e-13 band
    model = sf.SphereModel(m, n)
    E = model.E
    t = np.array([1.0 - 2e-14, -(1.0 - 2e-14), 1.0, -1.0])
    _, dq, d2q = sf.gegenbauer_eval_arrays(model, t)
    sign = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(dq, sign ** (n + 1) * (E / m))
    assert np.array_equal(d2q, sign ** n * (E - m) * E / (m * (m + 2)))
    assert 1.0 - t[0] ** 2 > 0.0  # the band, not only the endpoints


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
# Hilb approximation
# ---------------------------------------------------------------------------

def test_c_tilde():
    assert c_tilde(2) == pytest.approx(1.0, abs=1e-15)
    assert c_tilde(4) == pytest.approx(2.0, rel=1e-14)
    assert c_tilde(3) == pytest.approx(math.sqrt(math.pi / 2), rel=1e-14)


def test_hilb_matches_recurrence_within_envelope():
    for m, n in [(2, 50), (3, 40)]:
        model = sf.SphereModel(m, n)
        for theta in np.linspace(5.0 / n, math.pi / 2, 150):
            approx, env = hilb_approx(model, float(theta))
            exact = sf.gegenbauer_q(model, math.cos(theta))
            assert abs(approx - exact) <= env


def test_hilb_small_angle_limit_is_one():
    model = sf.SphereModel(2, 50)
    approx, _ = hilb_approx(model, 1e-6)
    assert approx == pytest.approx(1.0, abs=1e-6)
    model = sf.SphereModel(3, 40)
    approx, _ = hilb_approx(model, 1e-6)
    assert approx == pytest.approx(1.0, abs=1e-6)


def test_hilb_domain():
    model = sf.SphereModel(2, 10)
    with pytest.raises(ValueError):
        hilb_approx(model, 0.0)
    with pytest.raises(ValueError):
        hilb_approx(model, 2.0)


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
    # doubling loop: the reference the shared levels must reproduce.  Like
    # moment_integral it takes twice the [0, pi/2] integral, whose panels
    # have the width of max(8, 8n) panels over [0, pi]
    m = model.m
    wm = sphere_volume(m - 1)

    def integrand(thetas):
        t = np.cos(thetas)
        q, dq, d2q = sf.gegenbauer_eval_arrays(model, t)
        g = {"Q2": q**2, "Q4": q**4, "DQ2": dq**2, "DQ4_weighted": dq**4 * (1.0 - t * t) ** 2,
             "D2Q2_weighted": d2q**2 * (1.0 - t * t) ** 2}[kind]
        return wm * g * np.sin(thetas) ** (m - 1)

    panels = max(4, 4 * model.n)
    nodes, weights = sf._panel_nodes(0.0, math.pi / 2, panels)
    val = float(np.sum(weights * integrand(nodes)))
    for _ in range(8):
        panels *= 2
        nodes, weights = sf._panel_nodes(0.0, math.pi / 2, panels)
        new = float(np.sum(weights * integrand(nodes)))
        if abs(new - val) <= 1e-10 * max(1.0, abs(new)):
            return 2.0 * new
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
    # Q2, Q4 and DQ2 share the first two panel levels of each row
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
    assert epsilon_rate(2, 10) == pytest.approx(math.log(10) / 100, rel=1e-14)
    assert epsilon_rate(3, 10) == pytest.approx(1e-3, rel=1e-14)
    assert epsilon_rate(2, 3) == pytest.approx(math.log(3) / 9, rel=1e-14)
    with pytest.raises(ValueError):
        epsilon_rate(2, 1)


def test_unconverged_quadrature_raises():
    # a step inside a panel converges only at first order in the panel width
    step = lambda th: (th > 1.0).astype(float)  # noqa: E731
    with pytest.raises(RuntimeError, match="did not converge"):
        sf._integrate_theta(step, 0.0, math.pi, 3, rtol=1e-15)
    assert sf._integrate_theta(np.sin, 0.0, math.pi, 3) == pytest.approx(2.0, rel=1e-12)
    # a NaN change is not convergence
    with pytest.raises(RuntimeError, match="did not converge"):
        sf._integrate_theta(lambda th: np.full_like(th, np.nan), 0.0, math.pi, 3)



def _counted(f):
    calls = []

    def g(thetas):
        calls.append(thetas.size)
        return f(thetas)

    return g, calls


def test_stacked_rows_converge_on_their_own_levels():
    # the smooth row converges at the first doubling, and its later levels
    # still move its last bits, so a stack that kept the last level's sums
    # would not return the one-row value
    smooth = lambda th: 1.0 / (1.5 + np.cos(th))  # noqa: E731
    wavy = lambda th: np.cos(30.0 * th) ** 2 * np.sin(th)  # noqa: E731
    f, smooth_calls = _counted(smooth)
    alone_smooth = sf._integrate_theta(f, 0.0, math.pi, 3)
    f, wavy_calls = _counted(wavy)
    alone_wavy = sf._integrate_theta(f, 0.0, math.pi, 3)
    assert len(smooth_calls) == 2 < len(wavy_calls)
    f, stack_calls = _counted(lambda th: np.stack((smooth(th), wavy(th))))
    together = sf._integrate_theta(f, 0.0, math.pi, 3)
    assert len(stack_calls) == len(wavy_calls)
    assert together.tolist() == [alone_smooth, alone_wavy]


def test_stacked_unconverged_row_raises_with_its_change():
    step = lambda th: (th > 1.0).astype(float)  # noqa: E731
    with pytest.raises(RuntimeError) as alone:
        sf._integrate_theta(step, 0.0, math.pi, 3, rtol=1e-15)
    change = str(alone.value).split("last change ")[1].split(" ")[0]
    with pytest.raises(RuntimeError, match="did not converge") as stacked:
        sf._integrate_theta(lambda th: np.stack((np.sin(th), step(th))), 0.0, math.pi, 3,
                            rtol=1e-15)
    assert f"last change {change} (row 1)" in str(stacked.value)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 80])
def test_half_range_moment_matches_full_range(m, n):
    # every integrand is even about theta = pi/2, odd n included, so twice
    # the [0, pi/2] integral is the [0, pi] one from panels of the same width
    model = sf.SphereModel(m, n)
    half = sf.moment_integral(model, sf.MOMENT_KINDS)
    for kind, value in zip(sf.MOMENT_KINDS, half):
        def f(thetas, kind=kind):
            t = np.cos(thetas)
            q, dq, d2q = sf.gegenbauer_eval_arrays(model, t)
            return (sphere_volume(m - 1) * sf._MOMENT_INTEGRANDS[kind](q, dq, d2q, t)
                    * np.sin(thetas) ** (m - 1))

        full = sf._integrate_theta(f, 0.0, math.pi, max(8, sf.PANELS_PER_DEGREE * n))
        # D2Q2_weighted vanishes at n = 1, where Q_1 is linear
        assert abs(value - full) <= 1e-12 * (abs(full) if full else 1.0), kind
