"""Nodal lines on triangulated S^2 and the statistics built from them.

A sampled eigenfunction is evaluated at every mesh vertex; each triangle
whose vertex signs disagree contributes one great-circle segment between
the linearly interpolated zero crossings of its two sign-change edges.
Total length approximates the nodal volume; dividing each segment by the
gradient norm at its midpoint gives the line-integral Leray estimate, and
an independent sublevel-area estimator for the Leray measure comes from
the exact band area of the per-triangle linear interpolant, extrapolated
in epsilon^2.

Sample-level Monte Carlo experiments accumulate everything through
commutative (count, sum, sum of squares) merges, so results do not depend
on evaluation order and replay exactly from the seed.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import ensemble, moments
from .geometry import IcoMesh, icosphere, spherical_triangle_areas
from .specfun import SphereModel

__all__ = [
    "NodalSet",
    "ExperimentReport",
    "NearSingularSampleError",
    "extract_nodal",
    "leray_estimate_line",
    "leray_estimate_sublevel",
    "monte_carlo_experiment",
    "nodal_to_csv",
]

ZERO_VERTEX_TOL = 1e-13
VERTEX_NUDGE = 1e-7
MIN_MIDPOINT_GRADIENT = 1e-9


class NearSingularSampleError(RuntimeError):
    """A nodal segment midpoint carries an effectively vanishing gradient."""


@dataclass(frozen=True)
class NodalSet:
    """Zero-set polyline of one sample on one mesh."""

    segments: np.ndarray        # (S, 2, 3) unit endpoints
    total_length: float         # sum of great-circle segment lengths
    gradient_norms: np.ndarray  # (S,) |grad f| at segment midpoints


@dataclass
class ExperimentReport:
    """Aggregated Monte Carlo statistics with the matching theory values.

    ``theory_varL`` (and so ``ratio_varL``) is the leading-order
    ``moments.leray_variance_asymptotic``, 4 pi / N on S^2, not Var(L) at
    degree n; ``moments.leray_variance`` gives the latter (1.197 times
    4 pi / N at n = 20).
    """

    model: SphereModel
    sample_count: int
    mesh_level: int
    seed: int
    mean_Z: float
    var_Z: float
    se_Z: float
    mean_L: float
    var_L: float
    se_L: float
    theory_EZ: float
    theory_EL: float
    theory_varL: float
    excluded: int = 0

    def as_dict(self) -> dict:
        return {
            "m": self.model.m,
            "n": self.model.n,
            "N": self.model.N,
            "E": self.model.E,
            "samples": self.sample_count,
            "mesh_level": self.mesh_level,
            "seed": self.seed,
            "mean_Z": self.mean_Z,
            "var_Z": self.var_Z,
            "se_Z": self.se_Z,
            "mean_L": self.mean_L,
            "var_L": self.var_L,
            "se_L": self.se_L,
            "theory_EZ": self.theory_EZ,
            "theory_EL": self.theory_EL,
            "theory_varL": self.theory_varL,
            "ratio_Z": self.mean_Z / self.theory_EZ,
            "ratio_L": self.mean_L / self.theory_EL,
            "ratio_varL": self.var_L / self.theory_varL,
            "excluded": self.excluded,
        }


def _vertex_values(sample: ensemble.HarmonicSample, mesh: IcoMesh,
                   values: np.ndarray | None) -> np.ndarray:
    if values is None:
        values = ensemble.eval_many(sample, mesh.vertices)
    vals = np.array(values, dtype=float)
    # exact zeros at vertices would make crossings ambiguous; replace the
    # value by a re-evaluation a tiny step along the vertex's first edge
    zero = np.abs(vals) < ZERO_VERTEX_TOL
    if np.any(zero):
        idx = np.nonzero(zero)[0]
        neighbor = np.empty(idx.size, dtype=np.int64)
        for j, vi in enumerate(idx):
            tri = mesh.triangles[np.any(mesh.triangles == vi, axis=1)][0]
            neighbor[j] = tri[tri != vi][0]
        p = mesh.vertices[idx] + VERTEX_NUDGE * (mesh.vertices[neighbor] - mesh.vertices[idx])
        p /= np.linalg.norm(p, axis=1)[:, None]
        vals[idx] = ensemble.eval_many(sample, p)
    return vals


def _warn_if_under_resolved(mesh: IcoMesh, n: int) -> None:
    """Warn when the mesh is coarser than pi/(8n) per edge; the warning
    points at the caller of the public function that checks."""
    if n > 0 and mesh.edge_length_max > math.pi / (8.0 * n):
        warnings.warn(
            f"mesh edges up to {mesh.edge_length_max:.4f} rad exceed pi/(8n) = "
            f"{math.pi / (8 * n):.4f}; nodal lines are under-resolved",
            stacklevel=3,
        )


def extract_nodal(sample: ensemble.HarmonicSample, mesh: IcoMesh,
                  values: np.ndarray | None = None, *,
                  check_resolution: bool = True) -> NodalSet:
    """March the triangles of ``mesh`` and collect the zero-crossing
    segments of ``sample``.

    ``values`` may carry precomputed vertex values (one evaluation of the
    basis matrix serves every sample on a fixed mesh).  Warns when the mesh
    is coarser than pi/(8n) per edge, unless ``check_resolution`` is false
    (a caller looping over samples on one mesh checks once instead).
    """
    if check_resolution:
        _warn_if_under_resolved(mesh, sample.basis.n)
    vals = _vertex_values(sample, mesh, values)

    tri = mesh.triangles
    f = vals[tri]                       # (T, 3)
    pos = f > 0.0
    npos = pos.sum(axis=1)
    crossed = (npos == 1) | (npos == 2)
    if not np.any(crossed):
        return NodalSet(segments=np.empty((0, 2, 3)), total_length=0.0,
                        gradient_norms=np.empty(0))

    ft = f[crossed]
    vt = mesh.vertices[tri[crossed]]    # (C, 3, 3)
    # orient so vertex 0 is the odd one out; then both crossings sit on the
    # edges (0,1) and (0,2)
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
    grads = ensemble.eval_gradient_ambient_many(sample, mids)
    gnorms = np.linalg.norm(grads, axis=1)

    segments = np.stack([p1, p2], axis=1)
    return NodalSet(segments=segments, total_length=float(lengths.sum()),
                    gradient_norms=gnorms)


def _segment_lengths(nodal: NodalSet) -> np.ndarray:
    dots = np.sum(nodal.segments[:, 0] * nodal.segments[:, 1], axis=1)
    return np.arccos(np.clip(dots, -1.0, 1.0))


def leray_estimate_line(sample: ensemble.HarmonicSample, nodal: NodalSet) -> float:
    """Line-integral Leray estimate: sum of segment length / |grad f| at
    the segment midpoint.  Raises NearSingularSampleError when a midpoint
    gradient is below 1e-9 so the caller can exclude and count the sample."""
    if nodal.segments.shape[0] == 0:
        raise ValueError("empty nodal set")
    if np.any(nodal.gradient_norms < MIN_MIDPOINT_GRADIENT):
        raise NearSingularSampleError("vanishing gradient on the nodal set")
    return float(np.sum(_segment_lengths(nodal) / nodal.gradient_norms))


def _band_fraction(fvals: np.ndarray, level: np.ndarray | float) -> np.ndarray:
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


def leray_estimate_sublevel(sample: ensemble.HarmonicSample, mesh: IcoMesh,
                            eps_list, values: np.ndarray | None = None,
                            return_details: bool = False):
    """Sublevel-area Leray estimate: area{|f| < eps}/(2 eps) from the exact
    band area of the per-triangle linear model (planar fraction times
    spherical triangle area), extrapolated linearly in eps^2 to eps = 0.

    ``eps_list`` must be decreasing with at least 3 entries; the line in
    eps^2 through the two smallest entries does the extrapolating, while the
    rest of the sequence backs the monotonicity check.  If the raw estimates
    are not monotone in eps beyond rounding the extrapolation is skipped and
    the smallest-eps raw value is returned; ``return_details`` exposes the
    raw sequence either way.
    """
    eps = np.asarray(list(eps_list), dtype=float)
    if eps.size < 3 or np.any(np.diff(eps) >= 0):
        raise ValueError("eps_list must be a decreasing sequence of >= 3 values")
    vals = _vertex_values(sample, mesh, values)
    f = vals[mesh.triangles]
    areas = spherical_triangle_areas(mesh.vertices, mesh.triangles)
    raw = np.empty(eps.size)
    for i, e in enumerate(eps):
        frac = _band_fraction(f, e) - _band_fraction(f, -e)
        raw[i] = float(np.dot(areas, frac)) / (2.0 * e)
    diffs = np.diff(raw)
    monotone = bool(np.all(diffs >= -1e-9 * np.abs(raw[:-1]))
                    or np.all(diffs <= 1e-9 * np.abs(raw[:-1])))
    if monotone:
        e2_a, e2_b = eps[-2] ** 2, eps[-1] ** 2
        estimate = float(raw[-1] + (raw[-1] - raw[-2]) * e2_b / (e2_a - e2_b))
    else:
        estimate = float(raw[-1])
    if return_details:
        return estimate, raw, monotone
    return estimate


def _worker_count(workers: int | None) -> int:
    """``workers``, else SPHNODAL_WORKERS, else 1; a count below 1 raises."""
    if workers is None:
        env = os.environ.get("SPHNODAL_WORKERS", "")
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise ValueError(f"SPHNODAL_WORKERS must be an integer, got {env!r}") from None
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def monte_carlo_experiment(model: SphereModel, mesh_level: int, samples: int,
                           seed: int, workers: int | None = None,
                           mesh: IcoMesh | None = None) -> ExperimentReport:
    """Draw ``samples`` eigenfunctions, extract nodal sets, and report the
    length and Leray statistics next to their theory values.

    Per-sample coefficient streams are keyed by (seed, sample index), so the
    report is reproducible and independent of worker scheduling.  Samples
    whose nodal midpoints carry vanishing gradients are excluded and
    counted; a warning fires if they exceed 1% of the draws.  A mesh
    coarser than pi/(8n) per edge warns once, before any sample is drawn.
    The reported ``theory_varL`` is the leading-order 4 pi / N, not Var(L)
    at degree n (see ``ExperimentReport``).
    """
    if model.m != 2:
        raise ValueError("mesh experiments only run on S^2")
    if samples < 2:
        raise ValueError(f"a sample variance needs at least 2 samples, got {samples}")
    if mesh is None:
        mesh = icosphere(mesh_level)
    _warn_if_under_resolved(mesh, model.n)
    basis = ensemble.HarmonicBasis(model.n)
    scale = math.sqrt(4.0 * math.pi / basis.size)
    basis_matrix = ensemble.eval_basis_many(basis, mesh.vertices)

    z_vals = np.full(samples, np.nan)
    l_vals = np.full(samples, np.nan)

    def run_one(idx: int) -> None:
        a = ensemble.rng_for(seed, idx).standard_normal(basis.size)
        smp = ensemble.HarmonicSample(basis=basis, a=a, scale=scale)
        vertex_vals = scale * (basis_matrix @ a)
        nodal = extract_nodal(smp, mesh, values=vertex_vals, check_resolution=False)
        z_vals[idx] = nodal.total_length
        try:
            l_vals[idx] = leray_estimate_line(smp, nodal)
        except (NearSingularSampleError, ValueError):
            pass  # stays NaN, counted below

    nworkers = _worker_count(workers)
    if nworkers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(run_one, range(samples)))
    else:
        for idx in range(samples):
            run_one(idx)

    good = ~np.isnan(l_vals)
    excluded = int(samples - good.sum())
    if excluded > 0.01 * samples:
        warnings.warn(f"{excluded} of {samples} samples excluded as near-singular")

    lv = l_vals[good]
    return ExperimentReport(
        model=model,
        sample_count=samples,
        mesh_level=mesh_level,
        seed=seed,
        mean_Z=float(z_vals.mean()),
        var_Z=float(z_vals.var(ddof=1)),
        se_Z=float(z_vals.std(ddof=1) / math.sqrt(samples)),
        mean_L=float(lv.mean()),
        var_L=float(lv.var(ddof=1)),
        se_L=float(lv.std(ddof=1) / math.sqrt(lv.size)),
        theory_EZ=moments.volume_expectation(model),
        theory_EL=moments.leray_expectation(model.m),
        theory_varL=moments.leray_variance_asymptotic(model),
        excluded=excluded,
    )


def nodal_to_csv(nodal: NodalSet) -> str:
    """Segments as CSV polylines: x1,y1,z1,x2,y2,z2 per row."""
    lines = ["x1,y1,z1,x2,y2,z2"]
    for seg in nodal.segments:
        lines.append(",".join(repr(float(c)) for c in seg.reshape(6)))
    return "\n".join(lines) + "\n"
