import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphnodal import ensemble as en
from sphnodal import geometry as ge
from sphnodal import nodal as nd
from sphnodal import specfun as sf


def zonal_degree_one(coefficient=1.0):
    basis = en.HarmonicBasis(1)
    a = np.zeros(3)
    a[1] = coefficient  # k = 0 entry
    return en.HarmonicSample(basis=basis, a=a, scale=math.sqrt(4 * math.pi / 3))


def sample_with_values(n, seed, mesh, basis_matrix=None):
    basis = en.HarmonicBasis(n)
    a = en.rng_for(seed).standard_normal(basis.size)
    scale = math.sqrt(4 * math.pi / basis.size)
    sample = en.HarmonicSample(basis=basis, a=a, scale=scale)
    if basis_matrix is None:
        basis_matrix = en.eval_basis_many(basis, mesh.vertices)
    return sample, scale * (basis_matrix @ a)


def test_zonal_nodal_line_is_equator(mesh_level5):
    sample = zonal_degree_one()
    nodal = nd.extract_nodal(sample, mesh_level5)
    assert nodal.total_length == pytest.approx(2 * math.pi, rel=5e-3)
    # all segment endpoints on the equator
    z = np.abs(nodal.segments[:, :, 2])
    assert float(z.max()) < 1e-6


def test_zonal_leray_closed_form(mesh_level5):
    sample = zonal_degree_one()
    nodal = nd.extract_nodal(sample, mesh_level5)
    grad = np.linalg.norm(en.eval_gradient_ambient(sample, np.array([1.0, 0.0, 0.0])))
    assert nd.leray_estimate_line(sample, nodal) == pytest.approx(2 * math.pi / grad, rel=1e-4)


def test_no_sign_change_gives_empty_set():
    basis = en.HarmonicBasis(0)
    sample = en.HarmonicSample(basis=basis, a=np.array([2.0]), scale=1.0)
    nodal = nd.extract_nodal(sample, ge.icosphere(2))
    assert nodal.total_length == 0.0
    assert nodal.segments.shape == (0, 2, 3)


def test_segment_endpoints_lie_on_sign_change_edges(mesh_level5):
    sample, values = sample_with_values(11, 5, mesh_level5)
    nodal = nd.extract_nodal(sample, mesh_level5, values=values)
    # every endpoint must be a unit vector and f there must be near zero
    pts = nodal.segments.reshape(-1, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12
    f_on_pts = en.eval_many(sample, pts)
    assert np.max(np.abs(f_on_pts)) < 0.05 * np.max(np.abs(values))


def test_total_length_consistent_with_segments(mesh_level5):
    sample, values = sample_with_values(9, 2, mesh_level5)
    nodal = nd.extract_nodal(sample, mesh_level5, values=values)
    dots = np.sum(nodal.segments[:, 0] * nodal.segments[:, 1], axis=1)
    lengths = np.arccos(np.clip(dots, -1, 1))
    assert nodal.total_length == pytest.approx(float(lengths.sum()), abs=1e-12)


def test_leray_scaling_laws(mesh_level5):
    sample, values = sample_with_values(8, 3, mesh_level5)
    nodal = nd.extract_nodal(sample, mesh_level5, values=values)
    line = nd.leray_estimate_line(sample, nodal)
    b = 3.7
    scaled = en.HarmonicSample(basis=sample.basis, a=b * sample.a, scale=sample.scale)
    nodal_b = nd.extract_nodal(scaled, mesh_level5, values=b * values)
    assert nodal_b.total_length == pytest.approx(nodal.total_length, abs=1e-10)
    assert nd.leray_estimate_line(scaled, nodal_b) == pytest.approx(line / b, rel=1e-10)


def test_sublevel_scaling_law(mesh_level5):
    sample, values = sample_with_values(8, 3, mesh_level5)
    h = mesh_level5.edge_length_max
    fmax = float(np.max(np.abs(values)))
    eps = [4 * h * fmax, 2 * h * fmax, h * fmax]
    est = nd.leray_estimate_sublevel(sample, mesh_level5, eps, values=values)
    b = 2.5
    scaled = en.HarmonicSample(basis=sample.basis, a=b * sample.a, scale=sample.scale)
    est_b = nd.leray_estimate_sublevel(scaled, mesh_level5, [b * e for e in eps],
                                       values=b * values)
    assert est_b == pytest.approx(est / b, rel=1e-12)


def test_band_fraction_exact_for_linear_function():
    fvals = np.array([[-1.0, 0.5, 2.0]])
    v1, v2, v3 = -1.0, 0.5, 2.0
    for c in (-2.0, -0.5, 0.25, 1.0, 3.0):
        got = nd._band_fraction(fvals, c)[0]
        if c <= v1:
            expected = 0.0
        elif c <= v2:
            expected = (c - v1) ** 2 / ((v2 - v1) * (v3 - v1))
        elif c < v3:
            expected = 1 - (v3 - c) ** 2 / ((v3 - v1) * (v3 - v2))
        else:
            expected = 1.0
        assert got == pytest.approx(expected, abs=1e-12)


@given(
    vals=st.tuples(
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
        st.floats(-5, 5, allow_nan=False),
    ),
    level=st.floats(-6, 6, allow_nan=False),
)
@settings(max_examples=300, deadline=None)
def test_band_fraction_bounds_and_monotone(vals, level):
    f = np.array([vals], dtype=float)
    frac = nd._band_fraction(f, level)[0]
    assert 0.0 <= frac <= 1.0
    assert nd._band_fraction(f, level + 0.25)[0] >= frac - 1e-12


def test_band_fraction_near_coincident_values_no_overflow_warning():
    # the denominators underflow to subnormals; the overflowing quotients
    # belong to entries the masks discard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frac = nd._band_fraction(np.array([[-1e-160, 0.0, 1e-160]]), 3.0)
    assert frac[0] == 1.0


def test_sublevel_eps_list_validation(mesh_level5):
    sample, values = sample_with_values(8, 3, mesh_level5)
    with pytest.raises(ValueError):
        nd.leray_estimate_sublevel(sample, mesh_level5, [0.1, 0.2, 0.3], values=values)
    with pytest.raises(ValueError):
        nd.leray_estimate_sublevel(sample, mesh_level5, [0.2, 0.1], values=values)


def test_sublevel_details_raw_sequence(mesh_level5):
    sample, values = sample_with_values(13, 6, mesh_level5)
    h = mesh_level5.edge_length_max
    fmax = float(np.max(np.abs(values)))
    est, raw, monotone = nd.leray_estimate_sublevel(
        sample, mesh_level5, [4 * h * fmax, 2 * h * fmax, h * fmax],
        values=values, return_details=True,
    )
    assert raw.shape == (3,)
    if monotone:
        # extrapolation continues the trend of the two smallest eps values
        assert (est - raw[-1]) * (raw[-1] - raw[-2]) >= 0
    else:
        assert est == raw[-1]


def test_cross_estimator_agreement(mesh_level5, basis20, basis20_on_level5):
    # per-sample agreement within 5% for 95% of draws, and the two ensemble
    # averages agree to 2%
    h = mesh_level5.edge_length_max
    scale = math.sqrt(4 * math.pi / basis20.size)
    rel = []
    lines = []
    subs = []
    for s in range(100):
        a = en.rng_for(11, s).standard_normal(basis20.size)
        sample = en.HarmonicSample(basis=basis20, a=a, scale=scale)
        values = scale * (basis20_on_level5 @ a)
        nodal = nd.extract_nodal(sample, mesh_level5, values=values)
        try:
            line = nd.leray_estimate_line(sample, nodal)
        except (nd.NearSingularSampleError, ValueError):
            continue
        fmax = float(np.max(np.abs(values)))
        sub = nd.leray_estimate_sublevel(
            sample, mesh_level5, [4 * h * fmax, 2 * h * fmax, h * fmax], values=values
        )
        lines.append(line)
        subs.append(sub)
        rel.append(abs(line - sub) / line)
    rel = np.array(rel)
    assert float(np.quantile(rel, 0.95)) <= 0.05
    assert abs(np.mean(lines) - np.mean(subs)) / np.mean(lines) <= 0.02


def test_antipodal_symmetry(mesh_level5, basis20, basis20_on_level5):
    # degree parity makes the nodal set of x -> f(-x) a congruent copy; the
    # icosphere is centrally symmetric so lengths agree to rounding
    scale = math.sqrt(4 * math.pi / basis20.size)
    a = en.rng_for(19).standard_normal(basis20.size)
    sample = en.HarmonicSample(basis=basis20, a=a, scale=scale)
    values = scale * (basis20_on_level5 @ a)
    reflected = en.eval_many(sample, -mesh_level5.vertices)
    n1 = nd.extract_nodal(sample, mesh_level5, values=values)
    n2 = nd.extract_nodal(sample, mesh_level5, values=reflected)
    assert n1.total_length == pytest.approx(n2.total_length, abs=1e-9)


def test_refinement_consistency(mesh_level5, mesh_level6, mesh_level7, basis20,
                                basis20_on_level5):
    # Richardson self-consistency of the pinned linear extractor at n = 20.
    # Linear interpolation of the crossings makes the length error O(h^2), so
    # one level (half the edge) cuts it by 4: the extrapolation (4 l6 - l5)/3
    # from levels 5 and 6 must predict level 7 within 4e-3, and the observed
    # order log2((l5 - l6)/(l6 - l7)) must be near 2; the order check is what
    # catches an extractor degraded to first order.  The raw step from level
    # 5 to 6 (about 1%) is not bounded: the level-5 edge is twice pi/(8n).
    scale = math.sqrt(4 * math.pi / basis20.size)
    a = en.rng_for(7, 0).standard_normal(basis20.size)
    sample = en.HarmonicSample(basis=basis20, a=a, scale=scale)
    l5, l6, l7 = (
        nd.extract_nodal(sample, mesh, values=scale * (basis_matrix @ a)).total_length
        for mesh, basis_matrix in (
            (mesh_level5, basis20_on_level5),
            (mesh_level6, en.eval_basis_many(basis20, mesh_level6.vertices)),
            (mesh_level7, en.eval_basis_many(basis20, mesh_level7.vertices)),
        )
    )
    richardson = (4 * l6 - l5) / 3
    assert abs(richardson - l7) / l7 <= 4e-3
    assert 1.5 <= math.log2((l5 - l6) / (l6 - l7)) <= 2.5


def test_near_singular_detection():
    basis = en.HarmonicBasis(2)
    sample = en.sample_function(basis, 1)
    segments = np.array([[[1.0, 0, 0], [0, 1.0, 0]]])
    fake = nd.NodalSet(segments=segments, total_length=math.pi / 2,
                       gradient_norms=np.array([1e-12]))
    with pytest.raises(nd.NearSingularSampleError):
        nd.leray_estimate_line(sample, fake)
    with pytest.raises(ValueError):
        nd.leray_estimate_line(sample, nd.NodalSet(
            segments=np.empty((0, 2, 3)), total_length=0.0, gradient_norms=np.empty(0)))


def test_coarse_mesh_warns():
    sample = en.sample_function(en.HarmonicBasis(40), 2)
    with pytest.warns(UserWarning, match="under-resolved"):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            nd.extract_nodal(sample, ge.icosphere(3))


@pytest.mark.parametrize("workers", [1, 2])
def test_monte_carlo_experiment_warns_once_when_under_resolved(workers):
    # level 4 has edges up to 0.083 rad, above pi/(8n) = 0.079 at n = 5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nd.monte_carlo_experiment(sf.SphereModel(2, 5), 4, samples=6, seed=1,
                                  workers=workers)
    under_resolved = [w for w in caught if "under-resolved" in str(w.message)]
    assert len(under_resolved) == 1


def test_monte_carlo_experiment_report(mesh_level5):
    model = sf.SphereModel(2, 12)
    rep = nd.monte_carlo_experiment(model, 5, samples=60, seed=5, mesh=mesh_level5)
    d = rep.as_dict()
    assert d["samples"] == 60
    assert d["se_Z"] == pytest.approx(math.sqrt(d["var_Z"] / 60), rel=1e-12)
    assert d["theory_EL"] == pytest.approx(math.sqrt(8 * math.pi), rel=1e-12)
    assert 0.5 < d["ratio_Z"] < 1.5
    assert d["excluded"] == 0


def test_monte_carlo_deterministic_and_scheduling_invariant(mesh_level5):
    model = sf.SphereModel(2, 10)
    seq = nd.monte_carlo_experiment(model, 5, samples=40, seed=9, mesh=mesh_level5, workers=1)
    par = nd.monte_carlo_experiment(model, 5, samples=40, seed=9, mesh=mesh_level5, workers=4)
    assert seq.as_dict() == par.as_dict()


@pytest.mark.parametrize("env", ["abc", "0", "-2"])
def test_worker_count_rejects_bad_environment_value(monkeypatch, env):
    monkeypatch.setenv("SPHNODAL_WORKERS", env)
    with pytest.raises(ValueError, match="SPHNODAL_WORKERS|worker count"):
        nd._worker_count(None)
    monkeypatch.setenv("SPHNODAL_WORKERS", "3")
    assert nd._worker_count(None) == 3


def test_monte_carlo_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        nd.monte_carlo_experiment(sf.SphereModel(3, 5), 4, samples=2, seed=0)


def test_nodal_csv_export(mesh_level5):
    sample, values = sample_with_values(6, 8, mesh_level5)
    nodal = nd.extract_nodal(sample, mesh_level5, values=values)
    text = nd.nodal_to_csv(nodal)
    lines = text.strip().split("\n")
    assert lines[0] == "x1,y1,z1,x2,y2,z2"
    assert len(lines) == nodal.segments.shape[0] + 1
    first = np.array([float(v) for v in lines[1].split(",")])
    assert np.allclose(first[:3], nodal.segments[0, 0])
