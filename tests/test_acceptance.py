"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``-s`` to
watch them live).  Shared heavy artifacts (meshes, the reference Monte
Carlo run, kernel-quadrature reports) are module-scoped fixtures.
"""

import io
import math
import sys
import warnings

import numpy as np
import pytest

from sphnodal import cli
from sphnodal import covariance as cv
from sphnodal import ensemble as en
from sphnodal import geometry as ge
from sphnodal import moments as mo
from sphnodal import nodal as nd
from sphnodal import specfun as sf

from conftest import aligned_frames, epsilon_rate, hilb_approx, north_pole


def check(name, conditions):
    failed = [label for label, ok in conditions if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"[{status}] {name}")
    for label in failed:
        print(f"       failed: {label}")
    assert not failed, f"{name}: " + "; ".join(failed)


@pytest.fixture(scope="module")
def meshes():
    built = {}

    def get(level):
        if level not in built:
            built[level] = ge.icosphere(level)
        return built[level]

    return get


def resolving_level(meshes, n):
    """Coarsest icosphere level from 4 whose edges meet monte_carlo_experiment's pi/(8n) rule."""
    level = 4
    while meshes(level).edge_length_max > math.pi / (8 * n):
        level += 1
    return level


@pytest.fixture(scope="module")
def reference_mc_run(meshes):
    # the (m=2, n=20, 2000 samples, level 5) run of criterion 5; level 5
    # under-resolves n = 20 and must say so.  The autouse filter of
    # conftest.py does not reach a module-scoped fixture.
    with pytest.warns(UserWarning, match="under-resolved"):
        return nd.monte_carlo_experiment(sf.SphereModel(2, 20), 5, samples=2000,
                                         seed=7, mesh=meshes(5))


@pytest.fixture(scope="module")
def kernel_reports():
    return {n: mo.volume_second_moment(sf.SphereModel(2, n), mc_paths=20000, seed=3)
            for n in (10, 20, 40)}


def test_criterion_1_addition_theorem_gate():
    rng = np.random.default_rng(100)
    worst_self = 0.0
    worst_cross = 0.0
    for n in range(1, 41):
        basis = en.HarmonicBasis(n)
        model = sf.SphereModel(2, n)
        x = rng.standard_normal((100, 3))
        x /= np.linalg.norm(x, axis=1)[:, None]
        y = rng.standard_normal((100, 3))
        y /= np.linalg.norm(y, axis=1)[:, None]
        vx = en.eval_basis_many(basis, x)
        vy = en.eval_basis_many(basis, y)
        pref = 4 * math.pi / basis.size
        worst_self = max(worst_self, float(np.max(np.abs(pref * np.sum(vx * vx, axis=1) - 1))))
        cross = pref * np.sum(vx * vy, axis=1)
        target = sf.gegenbauer_q(model, np.clip(np.sum(x * y, axis=1), -1, 1))
        worst_cross = max(worst_cross, float(np.max(np.abs(cross - target))))
    check("criterion 1: addition-theorem gate", [
        (f"self sum within 1e-10 (got {worst_self:.2e})", worst_self <= 1e-10),
        (f"pairwise sum within 1e-9 (got {worst_cross:.2e})", worst_cross <= 1e-9),
    ])


def test_criterion_2_second_moment_closed_form():
    worst = 0.0
    for m in range(2, 6):
        for n in range(1, 41):
            model = sf.SphereModel(m, n)
            quad = sf.moment_integral(model, "Q2")
            closed = sf.second_moment_closed_form(model)
            worst = max(worst, abs(quad - closed) / closed)
    check("criterion 2: exact second moment of Q", [
        (f"quadrature vs closed form within 1e-8 relative (got {worst:.2e})",
         worst <= 1e-8),
    ])


def test_criterion_3_leray_variance_asymptotics():
    # Two-term form: N Var(L) / 4 pi = 1 + (a ln n + c)/n + o(1/n) with the
    # analytic a = 9/(4 pi^2), from the 3 Q^4/8 term of 1/sqrt(1 - Q^2) and
    # int P_n^4 dt ~ 3 ln n / (pi^2 n^2).  The shrink factor
    # s(n) = (ratio(2n) - 1)/(ratio(n) - 1) = (1 + a ln 2/(a ln n + c))/2 then
    # lies in [1/2, (1 + ln 2/ln n)/2].  The bracket assumes c >= 0 and a
    # negligible o(1/n): neither PAPER.md nor the README settles c (it
    # measures about 3.2-3.3).  At n = 10 the bracket is ratio(10) in
    # [1.303, 1.395]; the leading term alone is not within 30% there, since
    # ratio(10) = 1.3708.
    ratios = {}
    for n in (10, 20, 40, 80):
        model = sf.SphereModel(2, n)
        ratios[n] = model.N * mo.leray_variance(model) / (4 * math.pi)
    shrink = {n: (ratios[2 * n] - 1) / (ratios[n] - 1) for n in (10, 20, 40)}
    model3 = sf.SphereModel(3, 40)
    var3 = mo.leray_variance(model3)
    theory3 = mo.leray_variance_asymptotic(model3)
    check("criterion 3: Leray variance asymptotic", [
        *((f"m=2 n={n} shrink factor in [0.5, {0.5 * (1 + math.log(2) / math.log(n)):.4f}] "
           f"(got {s:.4f})",
           0.5 <= s <= 0.5 * (1 + math.log(2) / math.log(n)))
          for n, s in shrink.items()),
        (f"m=2 n=80 ratio in [0.93, 1.07] (got {ratios[80]:.4f})",
         0.93 <= ratios[80] <= 1.07),
        (f"m=3 n=40 within 20% of theory (got {var3 / theory3:.4f})",
         abs(var3 / theory3 - 1.0) <= 0.20),
    ])


def test_criterion_4_leray_monte_carlo(meshes):
    # at the level the pi/(8n) rule picks (7 for n = 20); level 5 biases the
    # line estimator by +5.2% on the mean and x1.52 on the variance.  The
    # variance target is the exact Var(L) at n = 20, 1.197 x 4 pi / 41.
    model = sf.SphereModel(2, 20)
    level = resolving_level(meshes, model.n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = nd.monte_carlo_experiment(model, level, samples=2000, seed=7,
                                        mesh=meshes(level))
    under_resolved = [w for w in caught if "under-resolved" in str(w.message)]
    exact_var = mo.leray_variance(model)
    mean_err = abs(rep.mean_L / rep.theory_EL - 1.0)
    var_err = abs(rep.var_L / exact_var - 1.0)
    check("criterion 4: Leray expectation and variance by Monte Carlo", [
        (f"mesh level {level} resolves n=20 (got {len(under_resolved)} warnings)",
         not under_resolved),
        (f"mean_L within 3% of sqrt(8 pi) (got {100 * mean_err:.2f}%)",
         mean_err <= 0.03),
        (f"var_L within 25% of Var(L) = {exact_var:.6f} (got {100 * var_err:.2f}%)",
         var_err <= 0.25),
    ])


def test_criterion_5_volume_expectation(reference_mc_run, meshes):
    rep = reference_mc_run
    mean_err = abs(rep.mean_Z / rep.theory_EZ - 1.0)
    # shared draws across levels: streams depend only on (seed, index)
    model = sf.SphereModel(2, 10)
    biases = []
    for level in (4, 5, 6):
        r = nd.monte_carlo_experiment(model, level, samples=500, seed=13, mesh=meshes(level))
        biases.append(abs(r.mean_Z - r.theory_EZ))
    check("criterion 5: volume expectation by Monte Carlo", [
        (f"mean_Z within 2% of 91.054 (got {100 * mean_err:.2f}%)", mean_err <= 0.02),
        (f"bias shrinks monotonically over levels 4..6 (got {[round(b, 3) for b in biases]})",
         biases[0] > biases[1] > biases[2]),
    ])


def test_criterion_6_volume_variance_scaling(kernel_reports, meshes):
    # quadrature-kernel side
    quad_vals = {}
    for n, rep in kernel_reports.items():
        model = sf.SphereModel(2, n)
        quad_vals[n] = rep.variance * math.sqrt(model.N) / model.E
    # Monte Carlo side, meshes fine enough for every degree
    mc_vals = {}
    for n, samples in ((10, 400), (20, 300), (40, 200)):
        level = resolving_level(meshes, n)
        rep = nd.monte_carlo_experiment(sf.SphereModel(2, n), level,
                                        samples=samples, seed=21,
                                        mesh=meshes(level))
        model = sf.SphereModel(2, n)
        mc_vals[n] = rep.var_Z * math.sqrt(model.N) / model.E
    check("criterion 6: volume variance scaling", [
        (f"quadrature var*sqrt(N)/E bounded by 1.5x n=10 value (got {quad_vals})",
         all(quad_vals[n] <= 1.5 * quad_vals[10] for n in (20, 40))),
        (f"Monte Carlo var*sqrt(N)/E bounded by 1.5x n=10 value (got "
         f"{ {k: round(v, 5) for k, v in mc_vals.items()} })",
         all(mc_vals[n] <= 1.5 * mc_vals[10] for n in (20, 40))),
    ])


def test_criterion_7_covariance_machinery():
    det_worst = 0.0
    for m in (2, 3):
        for n in (3, 10, 25):
            model = sf.SphereModel(m, n)
            blocks = cv.blocks_at(model, np.linspace(0.05, math.pi - 0.05, 50))
            det_sigma = np.prod(np.linalg.eigvalsh(cv.sigma_matrix(blocks)), axis=-1)
            det_omega = np.prod(cv.omega_spectrum(blocks), axis=(-2, -1))
            det_worst = max(det_worst, float(np.max(
                np.abs(det_sigma - (1.0 - blocks.u**2) * det_omega)
                / np.maximum(1.0, np.abs(det_sigma)))))
    fd_worst = 0.0
    for m in (2, 3):
        for n in (3, 10, 25):
            model = sf.SphereModel(m, n)
            for theta in (0.5, 1.2, 2.4):
                blocks = cv.blocks_at(model, theta)
                fd = cv.finite_difference_blocks(model, theta)
                closed = (blocks.u, blocks.d_long, blocks.h_long, blocks.h_trans)
                for got, want in zip(fd, closed):
                    fd_worst = max(fd_worst, abs(got - want) / max(1.0, blocks.scale))

    # ensemble covariance oracle, 1e5 samples
    theta = 0.9
    pole = north_pole(2)
    x = np.array([math.sin(theta), 0.0, math.cos(theta)])
    frame_x, frame_y = aligned_frames(x, pole)
    z_worst = 0.0
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
        z_worst = max(z_worst, float(np.max(np.abs(emp - theory) / np.maximum(se, 1e-12))))

    exact = cv.blocks_at(sf.SphereModel(2, 2), math.pi / 2)
    degenerate_detected = bool(cv.degenerate(cv.omega_spectrum(exact), exact.scale))
    check("criterion 7: covariance machinery", [
        (f"det identity within 1e-8 on the grid (got {det_worst:.2e})", det_worst <= 1e-8),
        (f"blocks match FD oracles to 1e-5 (got {fd_worst:.2e})", fd_worst <= 1e-5),
        (f"Sigma within 4 SE of ensemble covariance (got {z_worst:.2f})", z_worst < 4.0),
        ("exact degeneracy at (m=2, n=2, theta=pi/2) detected", degenerate_detected),
    ])


def test_criterion_8_moment_scaling_suite():
    scale_ok = []
    for m in (2, 3):
        model = sf.SphereModel(m, 80)
        val = 80 ** (m - 1) * sf.moment_integral(model, "Q2")
        limit = 2 ** (m - 1) * math.pi ** (m / 2) * math.gamma(m / 2)
        scale_ok.append((f"m={m}: n^(m-1) I_Q2 within 3% of limit (got {val / limit:.4f})",
                         abs(val / limit - 1) <= 0.03))
    ns = np.array([20, 40, 80, 160])
    q4 = [sf.moment_integral(sf.SphereModel(2, int(n)), "Q4") for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(q4), 1)[0])

    fit_dq2 = sf.moment_integral(sf.SphereModel(2, 20), "DQ2") / (20**2 * math.log(20))
    fit_dq4 = sf.moment_integral(sf.SphereModel(2, 10), "DQ4_weighted") / (10**2 * math.log(10))
    fit_d2q2 = sf.moment_integral(sf.SphereModel(2, 10), "D2Q2_weighted") / 10**3
    deriv_ok = True
    for n in (40, 80, 160):
        deriv_ok &= sf.moment_integral(sf.SphereModel(2, n), "DQ2") / (n**2 * math.log(n)) <= 1.5 * fit_dq2
        deriv_ok &= sf.moment_integral(sf.SphereModel(2, n), "DQ4_weighted") / (n**2 * math.log(n)) <= 1.5 * fit_dq4
        deriv_ok &= sf.moment_integral(sf.SphereModel(2, n), "D2Q2_weighted") / n**3 <= 1.5 * fit_d2q2

    hilb_ok = True
    for m in (2, 3):
        for n in (30, 50, 80):
            model = sf.SphereModel(m, n)
            for theta in np.linspace(5.0 / n, math.pi / 2, 120):
                approx, env = hilb_approx(model, float(theta))
                if abs(approx - sf.gegenbauer_q(model, math.cos(theta))) > env:
                    hilb_ok = False
    check("criterion 8: moment scaling suite", scale_ok + [
        (f"Q4 log-log slope in [-2.3, -1.8] (got {slope:.3f})", -2.3 <= slope <= -1.8),
        ("derivative moments bounded by calibrated fits", bool(deriv_ok)),
        ("Hilb envelope holds on the stated grids", hilb_ok),
    ])


def test_criterion_9_kernel_oracles(kernel_reports):
    model = sf.SphereModel(2, 2)
    blocks0 = cv.CovarianceBlocks(model=model, theta=1.0, u=0.0, d_long=0.0,
                                  h_long=0.0, h_trans=0.0, scale=3.0)
    val0, se0 = mo.kernel_K(blocks0, 200000, seed=11)
    blocks5 = cv.CovarianceBlocks(model=model, theta=1.0, u=0.5, d_long=0.0,
                                  h_long=0.0, h_trans=0.0, scale=3.0)
    val5, se5 = mo.kernel_K(blocks5, 200000, seed=11)
    target5 = 0.75 / math.sqrt(0.75)

    fit = kernel_reports[10].singular_contribution / (
        sf.SphereModel(2, 10).E * epsilon_rate(2, 10))
    budget_ok = True
    for n in (20, 40, 80, 160):
        model_n = sf.SphereModel(2, n)
        tips = mo._tips(model_n, mo._split_theta(model_n, 0.9))
        budget = ge.sphere_volume(2) * model_n.E * tips
        budget_ok &= budget <= 1.5 * fit * model_n.E * epsilon_rate(2, n)
    check("criterion 9: kernel oracles and singular budget", [
        (f"independence case K = E/8 within 3 SE (got {val0:.4f} +- {se0:.4f})",
         abs(val0 - 0.75) <= 3 * se0),
        (f"u = 0.5 case within 3 SE (got {val5:.4f} +- {se5:.4f})",
         abs(val5 - target5) <= 3 * se5),
        ("singular budget tracks calibrated C' E eps(m;n) across the sweep",
         bool(budget_ok)),
    ])


def test_criterion_10_cli_determinism(tmp_path):
    runs = [
        ["moments-table", "--m", "2", "--n", "0,3"],
        ["leray-variance", "--m", "2", "--n", "5,10"],
        ["volume-variance", "--m", "2", "--n", "8", "--mc-paths", "2000", "--seed", "2"],
        ["mc-verify", "--m", "2", "--n", "10", "--samples", "30",
         "--mesh-level", "4", "--seed", "7"],
        ["covariance-check", "--m", "2", "--n", "2,4", "--theta-points", "15"],
        ["kernel-profile", "--m", "2", "--n", "6", "--theta-points", "7",
         "--mc-paths", "1000", "--seed", "5"],
    ]
    all_ok = True
    details = []
    for args in runs:
        texts = []
        for _ in range(2):
            buf = io.StringIO()
            old = sys.stdout
            sys.stdout = buf
            try:
                code = cli.main(list(args))
            finally:
                sys.stdout = old
            assert code == 0, f"command failed: {args}"
            texts.append(buf.getvalue())
        same = texts[0] == texts[1]
        all_ok &= same
        if not same:
            details.append(args[0])
    check("criterion 10: CLI determinism", [
        (f"all commands byte-identical on re-run (diffs: {details})", all_ok),
    ])
