import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphnodal import ensemble as en
from sphnodal import geometry as ge
from sphnodal import moments as mo
from sphnodal import nodal as nd
from sphnodal import specfun as sf

from conftest import triangle_areas


def zonal_degree_one(coefficient=1.0):
    basis = en.HarmonicBasis(1)
    a = np.zeros(3)
    a[1] = coefficient  # k = 0 entry
    return en.HarmonicSample(basis=basis, a=a, scale=math.sqrt(4 * math.pi / 3))


def band_fraction(fvals: np.ndarray, level) -> np.ndarray:
    """Area fraction of {linear interpolant < level} per triangle.

    Closed form for a linear function with sorted vertex values; exact, so
    the band between -eps and eps is the exact clipped-polygon area.
    """
    v = np.sort(fvals, axis=1)
    v1, v2, v3 = v[:, 0], v[:, 1], v[:, 2]
    lev = np.broadcast_to(np.asarray(level, dtype=float), v1.shape)
    frac = np.zeros_like(v1)
    frac[lev >= v3] = 1.0
    lower = (lev > v1) & (lev <= v2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_low = (lev - v1) ** 2 / ((v2 - v1) * (v3 - v1))
        f_high = 1.0 - (v3 - lev) ** 2 / ((v3 - v1) * (v3 - v2))
    frac[lower] = np.nan_to_num(f_low, nan=0.0, posinf=1.0)[lower]
    upper = (lev > v2) & (lev < v3)
    frac[upper] = np.nan_to_num(f_high, nan=1.0, posinf=1.0)[upper]
    return np.clip(frac, 0.0, 1.0)


def leray_sublevel(mesh, values, eps) -> float:
    """Sublevel-area Leray estimate, independent of the line integral:
    area{|f| < eps} / (2 eps) from the exact band area of the per-triangle
    linear model (planar fraction times spherical triangle area), for a
    decreasing ``eps`` sequence.  When the raw values are monotone in eps
    the line in eps^2 through the two smallest extrapolates to eps = 0;
    otherwise the smallest-eps value is returned."""
    f = values[mesh.triangles]
    areas = triangle_areas(mesh.vertices, mesh.triangles)
    raw = np.array([float(np.dot(areas, band_fraction(f, e) - band_fraction(f, -e))) / (2.0 * e)
                    for e in eps])
    diffs = np.diff(raw)
    slack = 1e-9 * np.abs(raw[:-1])
    if np.all(diffs >= -slack) or np.all(diffs <= slack):
        e2_a, e2_b = eps[-2] ** 2, eps[-1] ** 2
        return float(raw[-1] + (raw[-1] - raw[-2]) * e2_b / (e2_a - e2_b))
    return float(raw[-1])


@dataclass(frozen=True)
class NodalSet:
    """Zero-set polyline of one sample on one mesh."""

    segments: np.ndarray        # (S, 2, 3) unit endpoints
    lengths: np.ndarray         # (S,) great-circle length of each segment
    total_length: float         # sum of ``lengths``
    gradient_norms: np.ndarray  # (S,) |grad f| at segment midpoints


def extract_nodal(sample, mesh, values) -> NodalSet:
    """The zero-crossing segments of one draw whose values at the mesh
    vertices are ``values``: the one-draw case of the Monte Carlo engine's
    private steps (zero-vertex nudge, sign test, crossing geometry, one
    gradient call), with the endpoints kept."""
    vals = nd._vertex_values(sample, mesh, values)
    lengths, mids, p1, p2 = nd._crossing_geometry(mesh, [(vals, nd._sign_changes(mesh, vals))])
    grads = en.eval_gradient_ambient_many(sample, mids).T
    return NodalSet(segments=np.stack(p1 + p2, axis=1).reshape(-1, 2, 3), lengths=lengths,
                    total_length=float(lengths.sum()),
                    gradient_norms=np.sqrt(nd._dot3(grads, grads)))


def leray_estimate_line(nodal) -> float:
    """Line-integral Leray estimate of one nodal set, under the engine's
    exclusion rule (``nodal._leray_sum``)."""
    return nd._leray_sum(nodal.lengths, nodal.gradient_norms)


def sample_with_values(n, seed, mesh, basis_matrix=None):
    basis = en.HarmonicBasis(n)
    a = en.rng_for(seed).standard_normal(basis.size)
    scale = math.sqrt(4 * math.pi / basis.size)
    sample = en.HarmonicSample(basis=basis, a=a, scale=scale)
    if basis_matrix is None:
        basis_matrix = en.eval_basis_many(basis, mesh.vertices)
    return sample, scale * (basis_matrix @ a)


# Oracles: the row-wise forms of the extractor, the nudge lookup and the
# tangent projection that the component-form code replaced.  The production
# code must reproduce them bit for bit.

def _rowwise_vertex_values(sample, mesh, values):
    vals = np.array(values, dtype=float)
    zero = np.abs(vals) < nd.ZERO_VERTEX_TOL
    if np.any(zero):
        idx = np.nonzero(zero)[0]
        neighbor = np.empty(idx.size, dtype=np.int64)
        for j, vi in enumerate(idx):
            tri = mesh.triangles[np.any(mesh.triangles == vi, axis=1)][0]
            neighbor[j] = tri[tri != vi][0]
        p = mesh.vertices[idx] + nd.VERTEX_NUDGE * (mesh.vertices[neighbor] - mesh.vertices[idx])
        p /= np.linalg.norm(p, axis=1)[:, None]
        vals[idx] = en.eval_many(sample, p)
    return vals


def _rowwise_gradients(sample, points):
    n = sample.basis.n
    coef = sample.scale * np.tensordot(sample.a, en._ladder(n), axes=(0, 0)).T
    grads = np.zeros_like(points)
    for start in range(0, points.shape[0], en._BLOCK):
        x = points[start:start + en._BLOCK]
        g = (coef @ en._basis_block(n - 1, x)).T
        grads[start:start + en._BLOCK] = g - np.sum(g * x, axis=1)[:, None] * x
    return grads


def _rowwise_extract(sample, mesh, values):
    vals = _rowwise_vertex_values(sample, mesh, values)
    tri = mesh.triangles
    f = vals[tri]
    pos = f > 0.0
    npos = pos.sum(axis=1)
    crossed = (npos == 1) | (npos == 2)
    if not np.any(crossed):
        return NodalSet(segments=np.empty((0, 2, 3)), lengths=np.empty(0),
                        total_length=0.0, gradient_norms=np.empty(0))
    ft = f[crossed]
    vt = mesh.vertices[tri[crossed]]
    odd = np.where(npos[crossed] == 1, pos[crossed].argmax(axis=1),
                   (~pos[crossed]).argmax(axis=1))
    rows = np.arange(ft.shape[0])
    order = np.stack([odd, (odd + 1) % 3, (odd + 2) % 3], axis=1)
    ft = ft[rows[:, None], order]
    vt = vt[rows[:, None], order]
    w01 = ft[:, 0] / (ft[:, 0] - ft[:, 1])
    w02 = ft[:, 0] / (ft[:, 0] - ft[:, 2])
    p1 = vt[:, 0] + w01[:, None] * (vt[:, 1] - vt[:, 0])
    p2 = vt[:, 0] + w02[:, None] * (vt[:, 2] - vt[:, 0])
    p1 /= np.linalg.norm(p1, axis=1)[:, None]
    p2 /= np.linalg.norm(p2, axis=1)[:, None]
    lengths = np.arccos(np.clip(np.sum(p1 * p2, axis=1), -1.0, 1.0))
    mids = p1 + p2
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    gnorms = np.linalg.norm(_rowwise_gradients(sample, mids), axis=1)
    return NodalSet(segments=np.stack([p1, p2], axis=1), lengths=lengths,
                    total_length=float(lengths.sum()), gradient_norms=gnorms)


def _rowwise_leray(nodal):
    segs = nodal.segments
    lengths = np.arccos(np.clip(np.sum(segs[:, 0] * segs[:, 1], axis=1), -1.0, 1.0))
    return float(np.sum(lengths / nodal.gradient_norms))


def _rowwise_report(model, mesh_level, samples, seed, mesh, *, whole=False):
    """The sample loop of monte_carlo_experiment, on the row-wise oracles:
    on the antipodal half ``mesh`` with Z and L doubled, as the experiment
    runs, or with ``whole`` on every triangle of the whole sphere ``mesh``."""
    factor = 1.0 if whole else 2.0
    basis = en.HarmonicBasis(model.n)
    scale = math.sqrt(4.0 * math.pi / basis.size)
    basis_matrix = en.eval_basis_many(basis, mesh.vertices)
    z_vals = np.full(samples, np.nan)
    l_vals = np.full(samples, np.nan)
    for idx in range(samples):
        a = en.rng_for(seed, idx).standard_normal(basis.size)
        smp = en.HarmonicSample(basis=basis, a=a, scale=scale)
        nodal = _rowwise_extract(smp, mesh, scale * (basis_matrix @ a))
        z_vals[idx] = factor * nodal.total_length
        if (nodal.segments.shape[0] > 0
                and not np.any(nodal.gradient_norms < nd.MIN_MIDPOINT_GRADIENT)):
            l_vals[idx] = factor * _rowwise_leray(nodal)
    lv = l_vals[~np.isnan(l_vals)]
    return nd.ExperimentReport(
        model=model, sample_count=samples, mesh_level=mesh_level, seed=seed,
        mean_Z=float(z_vals.mean()), var_Z=float(z_vals.var(ddof=1)),
        se_Z=float(z_vals.std(ddof=1) / math.sqrt(samples)),
        mean_L=float(lv.mean()), var_L=float(lv.var(ddof=1)),
        se_L=float(lv.std(ddof=1) / math.sqrt(lv.size)),
        theory_EZ=mo.volume_expectation(model), theory_EL=mo.leray_expectation(model.m),
        theory_varL=mo.leray_variance_asymptotic(model),
        excluded=int(samples - lv.size),
    ).as_dict()


def assert_same_nodal(got, want):
    assert np.array_equal(got.segments, want.segments)
    assert np.array_equal(got.lengths, want.lengths)
    assert got.total_length == want.total_length
    assert np.array_equal(got.gradient_norms, want.gradient_norms)


def test_zonal_nodal_line_is_equator(sphere_level5):
    sample = zonal_degree_one()
    nodal = extract_nodal(sample, sphere_level5, en.eval_many(sample, sphere_level5.vertices))
    assert nodal.total_length == pytest.approx(2 * math.pi, rel=5e-3)
    # all segment endpoints on the equator
    z = np.abs(nodal.segments[:, :, 2])
    assert float(z.max()) < 1e-6


def test_zonal_leray_closed_form(sphere_level5):
    sample = zonal_degree_one()
    nodal = extract_nodal(sample, sphere_level5, en.eval_many(sample, sphere_level5.vertices))
    grad = np.linalg.norm(en.eval_gradient_ambient_many(sample, np.array([[1.0, 0.0, 0.0]])))
    assert leray_estimate_line(nodal) == pytest.approx(2 * math.pi / grad, rel=1e-4)


def test_no_sign_change_gives_empty_set():
    basis = en.HarmonicBasis(0)
    sample = en.HarmonicSample(basis=basis, a=np.array([2.0]), scale=1.0)
    mesh = ge.icosphere(2)
    nodal = extract_nodal(sample, mesh, en.eval_many(sample, mesh.vertices))
    assert nodal.total_length == 0.0
    assert nodal.segments.shape == (0, 2, 3)


def test_segment_endpoints_lie_on_sign_change_edges(mesh_level5):
    sample, values = sample_with_values(11, 5, mesh_level5)
    nodal = extract_nodal(sample, mesh_level5, values=values)
    # every endpoint must be a unit vector and f there must be near zero
    pts = nodal.segments.reshape(-1, 3)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-12
    f_on_pts = en.eval_many(sample, pts)
    assert np.max(np.abs(f_on_pts)) < 0.05 * np.max(np.abs(values))


def test_total_length_consistent_with_segments(mesh_level5):
    sample, values = sample_with_values(9, 2, mesh_level5)
    nodal = extract_nodal(sample, mesh_level5, values=values)
    dots = np.sum(nodal.segments[:, 0] * nodal.segments[:, 1], axis=1)
    lengths = np.arccos(np.clip(dots, -1, 1))
    assert nodal.total_length == pytest.approx(float(lengths.sum()), abs=1e-12)


def test_leray_scaling_laws(mesh_level5):
    sample, values = sample_with_values(8, 3, mesh_level5)
    nodal = extract_nodal(sample, mesh_level5, values=values)
    line = leray_estimate_line(nodal)
    b = 3.7
    scaled = en.HarmonicSample(basis=sample.basis, a=b * sample.a, scale=sample.scale)
    nodal_b = extract_nodal(scaled, mesh_level5, values=b * values)
    assert nodal_b.total_length == pytest.approx(nodal.total_length, abs=1e-10)
    assert leray_estimate_line(nodal_b) == pytest.approx(line / b, rel=1e-10)


def test_sublevel_scaling_law(mesh_level5):
    _, values = sample_with_values(8, 3, mesh_level5)
    h = mesh_level5.edge_length_max
    fmax = float(np.max(np.abs(values)))
    eps = [4 * h * fmax, 2 * h * fmax, h * fmax]
    est = leray_sublevel(mesh_level5, values, eps)
    b = 2.5
    est_b = leray_sublevel(mesh_level5, b * values, [b * e for e in eps])
    assert est_b == pytest.approx(est / b, rel=1e-12)


def test_band_fraction_exact_for_linear_function():
    fvals = np.array([[-1.0, 0.5, 2.0]])
    v1, v2, v3 = -1.0, 0.5, 2.0
    for c in (-2.0, -0.5, 0.25, 1.0, 3.0):
        got = band_fraction(fvals, c)[0]
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
    frac = band_fraction(f, level)[0]
    assert 0.0 <= frac <= 1.0
    assert band_fraction(f, level + 0.25)[0] >= frac - 1e-12


def test_band_fraction_near_coincident_values_no_overflow_warning():
    # the denominators underflow to subnormals; the overflowing quotients
    # belong to entries the masks discard
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        frac = band_fraction(np.array([[-1e-160, 0.0, 1e-160]]), 3.0)
    assert frac[0] == 1.0


def test_cross_estimator_agreement(sphere_level5, basis20, basis20_on_sphere5):
    # per-sample agreement within 5% for 95% of draws, and the two ensemble
    # averages agree to 2%
    h = sphere_level5.edge_length_max
    scale = math.sqrt(4 * math.pi / basis20.size)
    rel = []
    lines = []
    subs = []
    for s in range(100):
        a = en.rng_for(11, s).standard_normal(basis20.size)
        sample = en.HarmonicSample(basis=basis20, a=a, scale=scale)
        values = scale * (basis20_on_sphere5 @ a)
        nodal = extract_nodal(sample, sphere_level5, values=values)
        try:
            line = leray_estimate_line(nodal)
        except (nd.NearSingularSampleError, ValueError):
            continue
        fmax = float(np.max(np.abs(values)))
        sub = leray_sublevel(sphere_level5, values, [4 * h * fmax, 2 * h * fmax, h * fmax])
        lines.append(line)
        subs.append(sub)
        rel.append(abs(line - sub) / line)
    rel = np.array(rel)
    assert float(np.quantile(rel, 0.95)) <= 0.05
    assert abs(np.mean(lines) - np.mean(subs)) / np.mean(lines) <= 0.02


def test_antipodal_symmetry(sphere_level5, basis20, basis20_on_sphere5):
    # degree parity makes the nodal set of x -> f(-x) a congruent copy; the
    # icosphere is centrally symmetric so lengths agree to rounding
    scale = math.sqrt(4 * math.pi / basis20.size)
    a = en.rng_for(19).standard_normal(basis20.size)
    sample = en.HarmonicSample(basis=basis20, a=a, scale=scale)
    values = scale * (basis20_on_sphere5 @ a)
    reflected = en.eval_many(sample, -sphere_level5.vertices)
    n1 = extract_nodal(sample, sphere_level5, values=values)
    n2 = extract_nodal(sample, sphere_level5, values=reflected)
    assert n1.total_length == pytest.approx(n2.total_length, abs=1e-9)


def test_refinement_consistency(sphere_level5, sphere_level6, sphere_level7, basis20,
                                basis20_on_sphere5):
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
        extract_nodal(sample, mesh, values=scale * (basis_matrix @ a)).total_length
        for mesh, basis_matrix in (
            (sphere_level5, basis20_on_sphere5),
            (sphere_level6, en.eval_basis_many(basis20, sphere_level6.vertices)),
            (sphere_level7, en.eval_basis_many(basis20, sphere_level7.vertices)),
        )
    )
    richardson = (4 * l6 - l5) / 3
    assert abs(richardson - l7) / l7 <= 4e-3
    assert 1.5 <= math.log2((l5 - l6) / (l6 - l7)) <= 2.5


def test_near_singular_detection():
    segments = np.array([[[1.0, 0, 0], [0, 1.0, 0]]])
    fake = NodalSet(segments=segments, lengths=np.array([math.pi / 2]),
                    total_length=math.pi / 2, gradient_norms=np.array([1e-12]))
    with pytest.raises(nd.NearSingularSampleError):
        leray_estimate_line(fake)
    with pytest.raises(ValueError):
        leray_estimate_line(NodalSet(
            segments=np.empty((0, 2, 3)), lengths=np.empty(0), total_length=0.0,
            gradient_norms=np.empty(0)))


def test_coarse_mesh_warns():
    with pytest.warns(UserWarning, match="under-resolved"):
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            nd.monte_carlo_experiment(sf.SphereModel(2, 40), 3, samples=2, seed=2,
                                      mesh=ge.icosphere(3))


@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_experiment_warns_once_when_under_resolved(seed):
    # level 4 has edges up to 0.083 rad, above pi/(8n) = 0.079 at n = 5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nd.monte_carlo_experiment(sf.SphereModel(2, 5), 4, samples=6, seed=seed)
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


@pytest.mark.parametrize("samples", [8, 40])
def test_monte_carlo_replays_from_seed(mesh_level5, samples):
    # 8 draws take the streamed path and 40 the basis matrix (21 columns)
    model = sf.SphereModel(2, 10)
    first = nd.monte_carlo_experiment(model, 5, samples=samples, seed=9, mesh=mesh_level5)
    again = nd.monte_carlo_experiment(model, 5, samples=samples, seed=9, mesh=mesh_level5)
    assert first.as_dict() == again.as_dict()


def test_monte_carlo_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        nd.monte_carlo_experiment(sf.SphereModel(3, 5), 4, samples=2, seed=0)


def test_monte_carlo_rejects_runs_that_leave_no_leray_variance(monkeypatch):
    # every midpoint gradient falls below an infinite threshold
    monkeypatch.setattr(nd, "MIN_MIDPOINT_GRADIENT", math.inf)
    with pytest.raises(ValueError, match="3 of 3 samples excluded"):
        nd.monte_carlo_experiment(sf.SphereModel(2, 5), 3, samples=3, seed=0)


@pytest.mark.parametrize("level,n", [(3, 6), (5, 20), (7, 20)])
def test_extract_nodal_matches_rowwise_oracle(level, n, request):
    mesh = request.getfixturevalue(f"mesh_level{level}") if level >= 5 else ge.icosphere(level)
    basis_matrix = en.eval_basis_many(en.HarmonicBasis(n), mesh.vertices)
    for seed in range(3):
        sample, values = sample_with_values(n, (level, seed), mesh, basis_matrix)
        got = extract_nodal(sample, mesh, values=values)
        assert got.segments.shape[0] > 0
        assert_same_nodal(got, _rowwise_extract(sample, mesh, values))
        assert leray_estimate_line(got) == _rowwise_leray(got)


def test_extract_nodal_matches_rowwise_oracle_at_edge_cases(sphere_level5):
    # no crossing: a positive constant
    constant = en.HarmonicSample(basis=en.HarmonicBasis(0), a=np.array([2.0]), scale=1.0)
    ones = np.ones(sphere_level5.vertices.shape[0])
    assert_same_nodal(extract_nodal(constant, sphere_level5, values=ones),
                      _rowwise_extract(constant, sphere_level5, ones))
    # exact zero vertex values take the nudge path
    sample, values = sample_with_values(11, 4, sphere_level5)
    values[[3, 400, 9000]] = 0.0
    assert_same_nodal(extract_nodal(sample, sphere_level5, values=values),
                      _rowwise_extract(sample, sphere_level5, values))
    # f = x (up to scale) vanishes on the meridian through both poles, which
    # are mesh vertices: the poles are nudged and midpoints crowd them
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    x_sample = en.HarmonicSample(basis=en.HarmonicBasis(1), a=np.array([0.0, 0.0, 1.0]),
                                 scale=math.sqrt(4 * math.pi / 3))
    x_values = en.eval_many(x_sample, sphere_level5.vertices)
    pole_rows = np.flatnonzero(
        np.all(sphere_level5.vertices[:, None] == poles, axis=2).any(axis=1))
    assert pole_rows.size == 2 and np.all(np.abs(x_values[pole_rows]) < nd.ZERO_VERTEX_TOL)
    got = extract_nodal(x_sample, sphere_level5, values=x_values)
    assert_same_nodal(got, _rowwise_extract(x_sample, sphere_level5, x_values))
    mids = got.segments.sum(axis=1)
    mids /= np.linalg.norm(mids, axis=1)[:, None]
    assert np.max(np.abs(mids[:, 2])) > 0.999
    # midpoints exactly at both poles
    sample20, _ = sample_with_values(20, 6, sphere_level5)
    points = np.vstack([poles, mids])
    assert np.array_equal(en.eval_gradient_ambient_many(sample20, points),
                          _rowwise_gradients(sample20, points))


def test_zero_vertex_nudge_matches_loop(mesh_level5):
    # the vertices of the first triangle sit in columns 0, 1 and 2 of their
    # first triangle, so each branch of the neighbour choice is taken
    sample, values = sample_with_values(9, 12, mesh_level5)
    zeros = np.append(mesh_level5.triangles[0], mesh_level5.vertices.shape[0] - 1)
    values[zeros] = 0.0
    got = nd._vertex_values(sample, mesh_level5, values)
    assert np.array_equal(got, _rowwise_vertex_values(sample, mesh_level5, values))
    assert np.all(got[zeros] != 0.0)
    assert np.all(values[zeros] == 0.0)  # the caller's array is not modified


@pytest.mark.parametrize("seed", [1, 2])
def test_monte_carlo_report_matches_rowwise_loop(mesh_level5, seed):
    # 60 draws against 41 basis columns: the basis-matrix path
    model = sf.SphereModel(2, 20)
    got = nd.monte_carlo_experiment(model, 5, 60, seed=seed, mesh=mesh_level5)
    assert got.as_dict() == _rowwise_report(model, 5, 60, seed, mesh_level5)


@pytest.mark.parametrize("level", [5, 6])
@pytest.mark.parametrize("n", [2, 7, 20])
def test_half_mesh_report_matches_whole_mesh_loop(request, level, n):
    # the nodal set of f(-x) = (-1)^n f(x) is centrally symmetric, and so is
    # the icosphere: twice the half's sums equal the whole mesh's sums up to
    # roundoff in the values at antipodal vertices.  30 draws take the basis
    # matrix at n = 2 and 7 (5 and 15 columns) and the streamed path at n = 20
    mesh = request.getfixturevalue(f"mesh_level{level}")
    whole = request.getfixturevalue(f"sphere_level{level}")
    model = sf.SphereModel(2, n)
    got = nd.monte_carlo_experiment(model, level, 30, seed=level, mesh=mesh).as_dict()
    want = _rowwise_report(model, level, 30, level, whole, whole=True)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_monte_carlo_refuses_a_mesh_of_another_level():
    with pytest.raises(ValueError, match="not the level-4 icosphere"):
        nd.monte_carlo_experiment(sf.SphereModel(2, 3), 4, samples=2, seed=0,
                                  mesh=ge.icosphere(3))


def test_monte_carlo_refuses_the_whole_sphere(sphere_level5):
    # the whole level-5 mesh has the triangle count of the level-6 half;
    # at its own level its doubled sums would count every nodal line twice
    with pytest.raises(ValueError, match="not the level-5 icosphere half"):
        nd.monte_carlo_experiment(sf.SphereModel(2, 3), 5, samples=2, seed=0,
                                  mesh=sphere_level5)


def test_zero_vertex_nudge_on_the_half_matches_the_whole_mesh(mesh_level5, sphere_level5):
    # each half vertex keeps its first triangle and that triangle's column
    # order, so a zero value is nudged towards the same neighbour
    sample, values = sample_with_values(9, 13, sphere_level5)
    used = np.unique(sphere_level5.triangles[:mesh_level5.triangles.shape[0]])
    values[used[::97]] = 0.0
    got = nd._vertex_values(sample, mesh_level5, values[used])
    assert np.array_equal(got, nd._vertex_values(sample, sphere_level5, values)[used])
    assert np.all(got != 0.0)


@pytest.mark.parametrize("n,samples", [(10, 20), (40, 5)])
def test_streamed_report_matches_rowwise_loop(mesh_level6, n, samples):
    # at most 2n+1 draws: the basis is built one vertex block at a time
    # (two blocks on the level-6 half) and each draw's values are filled one
    # gemv per block.  With one BLAS thread those values equal the full mat-vec's
    # bit for bit.  With more, OpenBLAS splits a gemv's rows between threads
    # at other rows for a block than for the whole matrix, and a row that
    # ends a thread's share is summed by its tail kernel in another order
    # (1e-16 relative, a few rows per draw), so the report is compared to
    # 1e-12 relative
    assert samples <= 2 * n + 1 and mesh_level6.vertices.shape[0] > en._BLOCK
    model = sf.SphereModel(2, n)
    got = nd.monte_carlo_experiment(model, 6, samples, seed=3, mesh=mesh_level6).as_dict()
    want = _rowwise_report(model, 6, samples, 3, mesh_level6)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("samples,expected_rows", [
    # the level-6 half has 20801 of the 40962 vertices
    (11, [en._BLOCK, 20801 - en._BLOCK]),  # 2n+1 draws: streamed
    (12, [20801]),                         # one more: basis matrix
], ids=["streamed", "basis-matrix"])
def test_basis_path_follows_draw_count(monkeypatch, mesh_level6, samples, expected_rows):
    rows = []
    evaluate = en.eval_basis_many

    def recording(basis, points):
        rows.append(points.shape[0])
        return evaluate(basis, points)

    monkeypatch.setattr(en, "eval_basis_many", recording)
    nd.monte_carlo_experiment(sf.SphereModel(2, 5), 6, samples, seed=2, mesh=mesh_level6)
    assert rows == expected_rows


def test_streamed_experiment_never_holds_the_basis_matrix(mesh_level7):
    # 5 draws against 81 columns at level 7: the (H, 81) basis matrix of the
    # half would take 53 MB (the whole mesh's, 106 MB); streamed, the vertex
    # data is 5 rows of the half plus one block
    model = sf.SphereModel(2, 40)
    basis_bytes = 8 * mesh_level7.vertices.shape[0] * (2 * model.n + 1)
    tracemalloc.start()
    try:
        nd.monte_carlo_experiment(model, 7, 5, seed=0, mesh=mesh_level7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < basis_bytes / 2


# Draw chunks: consecutive draws share one pass of the crossing geometry
# (``nodal._draw_chunks``).  Every report below must equal the row-wise
# loop bit for bit, whatever the chunks hold.

def _record_chunks(monkeypatch):
    """Per pass of the crossing geometry, the crossing count of each draw."""
    chunks = []
    geometry = nd._crossing_geometry

    def recording(mesh, draws):
        chunks.append([crossed.size for _, (crossed, _) in draws])
        return geometry(mesh, draws)

    monkeypatch.setattr(nd, "_crossing_geometry", recording)
    return chunks


def _assert_chunking_rule(chunks, samples):
    """A chunk stays within the crossing budget unless it is one draw, and
    closes only when its next draw would take it past the budget."""
    budget = nd._CHUNK_CROSSINGS
    assert sum(len(c) for c in chunks) == samples
    assert all(len(c) == 1 or sum(c) <= budget for c in chunks)
    assert all(sum(c) + nxt[0] > budget for c, nxt in zip(chunks, chunks[1:]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chunked_report_matches_rowwise_loop(monkeypatch, mesh_level5, n):
    # a few hundred crossings per draw on the level-5 half: dozens of draws
    # share each pass
    chunks = _record_chunks(monkeypatch)
    model = sf.SphereModel(2, n)
    got = nd.monte_carlo_experiment(model, 5, 300, seed=n, mesh=mesh_level5)
    assert got.as_dict() == _rowwise_report(model, 5, 300, n, mesh_level5)
    _assert_chunking_rule(chunks, 300)
    assert min(len(c) for c in chunks[:-1]) > 10


def test_draws_past_the_crossing_budget_run_alone(monkeypatch, mesh_level6):
    # about 10,000 crossings per draw at n = 40 on the level-6 half; 82 draws
    # against 81 basis columns take the basis matrix, whose gemv the row-wise
    # loop repeats exactly
    chunks = _record_chunks(monkeypatch)
    model = sf.SphereModel(2, 40)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*under-resolved")
        got = nd.monte_carlo_experiment(model, 6, 82, seed=4, mesh=mesh_level6)
    assert got.as_dict() == _rowwise_report(model, 6, 82, 4, mesh_level6)
    _assert_chunking_rule(chunks, 82)
    assert all(len(c) == 1 and c[0] > nd._CHUNK_CROSSINGS for c in chunks)


def test_chunk_with_excluded_draws_matches_rowwise_loop(monkeypatch, mesh_level5):
    # a threshold near the median of the draws' smallest midpoint gradients
    # excludes about half the draws of every chunk
    chunks = _record_chunks(monkeypatch)
    monkeypatch.setattr(nd, "MIN_MIDPOINT_GRADIENT", 1.44)
    model = sf.SphereModel(2, 3)
    with pytest.warns(UserWarning, match="excluded as near-singular"):
        got = nd.monte_carlo_experiment(model, 5, 60, seed=5, mesh=mesh_level5).as_dict()
    assert got == _rowwise_report(model, 5, 60, 5, mesh_level5)
    assert 0 < got["excluded"] < 60
    assert max(len(c) for c in chunks) > 10


def test_chunk_with_nudged_zero_vertices_matches_rowwise_loop(monkeypatch, mesh_level5):
    # with the tolerance at 1e-3 a few vertices of every draw count as zeros
    # and are re-evaluated a nudge along their first edge
    chunks = _record_chunks(monkeypatch)
    monkeypatch.setattr(nd, "ZERO_VERTEX_TOL", 1e-3)
    nudged = []
    evaluate = en.eval_many

    def recording(sample, points):
        nudged.append(points.shape[0])
        return evaluate(sample, points)

    model = sf.SphereModel(2, 3)
    with monkeypatch.context() as patch:
        patch.setattr(en, "eval_many", recording)
        got = nd.monte_carlo_experiment(model, 5, 60, seed=6, mesh=mesh_level5).as_dict()
    assert got == _rowwise_report(model, 5, 60, 6, mesh_level5)
    assert len(nudged) > 30 and sum(nudged) > 100
    assert max(len(c) for c in chunks) > 10


@pytest.mark.parametrize("n,level,samples", [(3, 5, 40), (40, 7, 3)],
                         ids=["chunked", "one-per-chunk"])
def test_gradients_evaluated_once_per_draw_at_its_midpoints(monkeypatch, request, n, level,
                                                            samples):
    # one gradient call per draw, on exactly the row-wise loop's midpoints:
    # the chunks share the crossing geometry, never a gradient block
    mesh = request.getfixturevalue(f"mesh_level{level}")
    calls = []
    evaluate = en.eval_gradient_ambient_many

    def recording(sample, points):
        calls.append((sample.a, np.array(points)))
        return evaluate(sample, points)

    model = sf.SphereModel(2, n)
    with monkeypatch.context() as patch:
        patch.setattr(en, "eval_gradient_ambient_many", recording)
        nd.monte_carlo_experiment(model, level, samples, seed=7, mesh=mesh)
    assert len(calls) == samples
    basis = en.HarmonicBasis(n)
    scale = math.sqrt(4.0 * math.pi / basis.size)
    basis_matrix = en.eval_basis_many(basis, mesh.vertices)
    for idx, (a, points) in enumerate(calls):
        assert np.array_equal(a, en.rng_for(7, idx).standard_normal(basis.size))
        sample = en.HarmonicSample(basis=basis, a=a, scale=scale)
        segments = _rowwise_extract(sample, mesh, scale * (basis_matrix @ a)).segments
        mids = segments[:, 0] + segments[:, 1]
        mids /= np.linalg.norm(mids, axis=1)[:, None]
        assert np.array_equal(points, mids)


def test_chunked_experiment_peak_memory(mesh_level5):
    # the chunks' crossing arrays must not raise the traced peak of a
    # basis-matrix run by more than 0.5 MB over the per-draw extraction's
    # 3,669,683 bytes (numpy 2.4, seed 3, after the warm-up run)
    model = sf.SphereModel(2, 20)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=".*under-resolved")
        nd.monte_carlo_experiment(model, 5, 2, seed=0, mesh=mesh_level5)  # warm caches
        tracemalloc.start()
        try:
            nd.monte_carlo_experiment(model, 5, 300, seed=3, mesh=mesh_level5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 3_669_683 + 500_000
